"""Model-based test: ``PredictionMatrix`` against a set of ``(row, col)`` tuples.

Hypothesis drives random sequences of ``mark_many``, ``unmark_many``
(valid batches, and batches spoiled by an unmarked, a repeated or an
out-of-bounds entry), ``keep_upper_triangle``, ``grow`` and ``copy``.
After every step each query must agree with the model, and a rejected
``unmark_many`` must have left the matrix unchanged.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.prediction import PredictionMatrix

MAX_DIM = 9


def batch(entries):
    """``(rows, cols)`` int64 arrays of a list of ``(row, col)`` tuples."""
    rows = np.array([row for row, _col in entries], dtype=np.int64)
    cols = np.array([col for _row, col in entries], dtype=np.int64)
    return rows, cols


class PredictionMatrixMachine(RuleBasedStateMachine):
    @initialize(
        num_rows=st.integers(1, MAX_DIM - 3), num_cols=st.integers(1, MAX_DIM - 3)
    )
    def start(self, num_rows, num_cols):
        self.matrix = PredictionMatrix(num_rows, num_cols)
        self.model = set()
        # Copies taken earlier, with the marks they must keep holding.
        self.retired = []

    def cells(self):
        return st.tuples(
            st.integers(0, self.matrix.num_rows - 1),
            st.integers(0, self.matrix.num_cols - 1),
        )

    @rule(data=st.data())
    def mark_many(self, data):
        entries = data.draw(st.lists(self.cells(), max_size=12))
        self.matrix.mark_many(*batch(entries))
        self.model |= set(entries)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def unmark_many(self, data):
        entries = data.draw(
            st.lists(st.sampled_from(sorted(self.model)), min_size=1, unique=True)
        )
        self.matrix.unmark_many(*batch(entries))
        self.model -= set(entries)

    @rule(data=st.data(), kind=st.sampled_from(["unmarked", "repeated", "outside"]))
    def unmark_many_rejected(self, data, kind):
        valid = []
        if self.model:
            valid = data.draw(st.lists(st.sampled_from(sorted(self.model)), unique=True))
        if kind == "unmarked":
            free = data.draw(self.cells())
            if free in self.model:
                return
            bad = free
        elif kind == "repeated":
            if not valid:
                return
            bad = data.draw(st.sampled_from(valid))
        else:
            bad = data.draw(
                st.sampled_from(
                    [(self.matrix.num_rows, 0), (0, self.matrix.num_cols), (-1, 0)]
                )
            )
        at = data.draw(st.integers(0, len(valid)))
        if kind == "repeated":
            at = max(at, valid.index(bad) + 1)
        entries = valid[:at] + [bad] + valid[at:]
        before = self.matrix.copy()
        if kind == "outside":
            with pytest.raises(IndexError):
                self.matrix.unmark_many(*batch(entries))
        else:
            # The error names the first entry, in batch order, that is
            # unmarked or repeats an earlier one.
            seen = set()
            for entry in entries:
                if entry in seen or entry not in self.model:
                    break
                seen.add(entry)
            with pytest.raises(KeyError, match=rf"\({entry[0]}, {entry[1]}\)"):
                self.matrix.unmark_many(*batch(entries))
        assert self.matrix == before

    @rule()
    def keep_upper_triangle(self):
        self.matrix.keep_upper_triangle()
        self.model = {(row, col) for row, col in self.model if row <= col}

    @rule(extra_rows=st.integers(0, 2), extra_cols=st.integers(0, 2))
    def grow(self, extra_rows, extra_cols):
        num_rows = min(MAX_DIM, self.matrix.num_rows + extra_rows)
        num_cols = min(MAX_DIM, self.matrix.num_cols + extra_cols)
        self.matrix.grow(num_rows, num_cols)
        with pytest.raises(ValueError):
            self.matrix.grow(num_rows - 1, num_cols)

    @rule()
    def copy(self):
        self.retired.append((self.matrix, frozenset(self.model)))
        self.matrix = self.matrix.copy()

    @invariant()
    def agrees_with_model(self):
        m, model = self.matrix, self.model
        ordered = sorted(model)
        assert m.num_marked == len(model)
        assert list(m.entries()) == ordered
        rows, cols = m.to_coo()
        assert rows.dtype == cols.dtype == np.int64
        assert not rows.flags.writeable and not cols.flags.writeable
        assert list(zip(rows.tolist(), cols.tolist())) == ordered
        assert m.marked_rows() == sorted({row for row, _col in model})
        assert m.marked_cols() == sorted({col for _row, col in model})
        dense = np.zeros((m.num_rows, m.num_cols), dtype=bool)
        for row, col in model:
            dense[row, col] = True
        assert np.array_equal(m.to_dense(), dense)
        for row in range(m.num_rows):
            assert m.row_cols(row) == np.nonzero(dense[row])[0].tolist()
            for col in range(m.num_cols):
                assert m.is_marked(row, col) == dense[row, col]
        for col in range(m.num_cols):
            assert m.col_rows(col) == np.nonzero(dense[:, col])[0].tolist()
        assert m.density() == len(model) / (m.num_rows * m.num_cols)
        assert m.csr_view().num_marked == len(model)

    @invariant()
    def equality_is_by_shape_and_marks(self):
        m = self.matrix
        rows, cols = m.to_coo()
        shuffled = np.random.default_rng(0).permutation(rows.size)
        twin = PredictionMatrix.from_coo(
            m.num_rows, m.num_cols, rows[shuffled], cols[shuffled]
        )
        assert twin == m
        assert PredictionMatrix.from_coo(m.num_rows + 1, m.num_cols, rows, cols) != m
        if len(self.model) < m.num_rows * m.num_cols:
            free = next(
                (row, col)
                for row in range(m.num_rows)
                for col in range(m.num_cols)
                if (row, col) not in self.model
            )
            twin.mark_many(*batch([free]))
            assert twin != m

    @invariant()
    def copies_are_independent(self):
        for matrix, model in self.retired:
            assert list(matrix.entries()) == sorted(model)


PredictionMatrixMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestPredictionMatrixModel = PredictionMatrixMachine.TestCase
