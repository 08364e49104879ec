"""The prediction matrix — the paper's global view of a join (Section 5).

A boolean matrix over page pairs: entry ``(i, j)`` is marked iff the
lower-bounding distance between page ``i`` of the first dataset and page
``j`` of the second is within the join threshold, i.e. the page pair may
contribute to the join.  Stored sparsely — "the prediction matrix stores
only the marked entries in sparse matrix format" (Section 7.1) — as one
pair of coordinate arrays, unique and sorted row-major.  Every mutator
is one array operation that rebinds the pair.  Row and column queries
read a :class:`CSRWorkMatrix` index (row-major CSR plus a column-major
CSC permutation) built on first use and dropped on the next mutation;
clustering takes its own independent copy of that index to remove
entries from.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["PredictionMatrix", "CSRWorkMatrix"]

Entry = Tuple[int, int]


class CSRWorkMatrix:
    """Dual CSR/CSC array view of a marked-entry snapshot, with removal.

    The one index over a matrix's coordinate arrays.  A
    :class:`PredictionMatrix` answers its row/column queries from one
    (never killing entries in it); cost clustering (CC) takes a fresh
    one as its *working copy*: it repeatedly slices rows/columns and
    removes the entries they assign to clusters.  The entries are
    stored once, in two static sorted orders, and removal is modelled
    with an alive-mask — so slicing is an array view plus a boolean
    gather, and removal is a vectorised mask update.

    Layout
    ------
    Entries are numbered ``0..e-1`` in row-major order.

    ``entry_rows`` / ``entry_cols``
        Coordinates by entry id (int64).
    ``row_indptr``
        CSR: entries of ``row`` are ids ``row_indptr[row]:row_indptr[row+1]``,
        ascending by column.
    ``csc_entries`` / ``col_indptr``
        CSC: ``csc_entries[col_indptr[col]:col_indptr[col+1]]`` are the
        ids of ``col``'s entries, ascending by row.
    ``alive``
        Boolean by entry id; killed entries stay in the arrays but are
        masked out of every query.
    ``row_live`` / ``col_live``
        Live-entry counts per row / column.
    """

    def __init__(
        self,
        num_rows: int,
        num_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be 1-d arrays of equal length")
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.entry_rows = rows
        self.entry_cols = cols
        counts = np.bincount(rows, minlength=num_rows)
        self.row_indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=self.row_indptr[1:])
        self.csc_entries = np.lexsort((rows, cols))
        col_counts = np.bincount(cols, minlength=num_cols)
        self.col_indptr = np.zeros(num_cols + 1, dtype=np.int64)
        np.cumsum(col_counts, out=self.col_indptr[1:])
        self.alive = np.ones(rows.size, dtype=bool)
        self.live_count = int(rows.size)
        self.row_live = counts.astype(np.int64)
        self.col_live = col_counts.astype(np.int64)
        # Compound coordinate keys, ascending in their respective orders:
        # one searchsorted over them finds a (row, col-range) span without
        # first slicing the row — which lets boundary scans probe *all*
        # candidate rows/columns in a single call.
        self.row_keys = rows * np.int64(num_cols) + cols
        self.csc_keys = (
            cols[self.csc_entries] * np.int64(num_rows) + rows[self.csc_entries]
        )

    # -- queries ------------------------------------------------------------

    @property
    def num_marked(self) -> int:
        """Live entries remaining (the working copy's ``e``)."""
        return self.live_count

    def live_rows(self) -> np.ndarray:
        """Sorted rows that still have a live entry."""
        return np.nonzero(self.row_live > 0)[0]

    def live_cols(self) -> np.ndarray:
        """Sorted columns that still have a live entry."""
        return np.nonzero(self.col_live > 0)[0]

    def row_entry_ids(self, row: int) -> np.ndarray:
        """Live entry ids of ``row``, ascending by column."""
        ids = self.csr_row_ids(row)
        return ids[self.alive[ids]]

    def col_entry_ids(self, col: int) -> np.ndarray:
        """Live entry ids of ``col``, ascending by row."""
        ids = self.csc_col_ids(col)
        return ids[self.alive[ids]]

    def csr_row_ids(self, row: int) -> np.ndarray:
        """All entry ids of ``row`` (live or not), ascending by column."""
        start, stop = self.row_indptr[row], self.row_indptr[row + 1]
        return np.arange(start, stop, dtype=np.int64)

    def csc_col_ids(self, col: int) -> np.ndarray:
        """All entry ids of ``col`` (live or not), ascending by row."""
        return self.csc_entries[self.col_indptr[col] : self.col_indptr[col + 1]]

    def live_entry_ids(self) -> np.ndarray:
        """Live entry ids in row-major order."""
        return np.nonzero(self.alive)[0]

    def compacted(self) -> "CSRWorkMatrix":
        """A fresh view holding only the live entries.

        Entry ids are renumbered (still row-major), so callers must drop
        any ids taken from the old view.  Rebuilding once the live
        fraction halves keeps the slicing cost proportional to the
        remaining work instead of the original entry count.
        """
        live = np.nonzero(self.alive)[0]
        return CSRWorkMatrix(
            self.num_rows, self.num_cols, self.entry_rows[live], self.entry_cols[live]
        )

    # -- mutation -----------------------------------------------------------

    def kill(self, entry_ids: np.ndarray) -> None:
        """Remove a batch of live entries (ids must be live and unique)."""
        entry_ids = np.asarray(entry_ids, dtype=np.int64)
        if entry_ids.size == 0:
            return
        self.alive[entry_ids] = False
        self.live_count -= int(entry_ids.size)
        np.subtract.at(self.row_live, self.entry_rows[entry_ids], 1)
        np.subtract.at(self.col_live, self.entry_cols[entry_ids], 1)


class PredictionMatrix:
    """Sparse boolean matrix over ``num_rows × num_cols`` page pairs.

    Rows index pages of the first (``R``) dataset, columns pages of the
    second (``S``) dataset.  The marked entries are two read-only int64
    arrays ``(rows, cols)``, unique and sorted row-major.

    Examples
    --------
    >>> m = PredictionMatrix.from_coo(3, 4, np.array([2, 0]), np.array([3, 1]))
    >>> m.is_marked(0, 1), m.is_marked(1, 1)
    (True, False)
    >>> m.num_marked
    2
    """

    def __init__(self, num_rows: int, num_cols: int) -> None:
        if num_rows <= 0 or num_cols <= 0:
            raise ValueError(
                f"matrix dimensions must be positive, got {num_rows}x{num_cols}"
            )
        self.num_rows = num_rows
        self.num_cols = num_cols
        self._assign(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    # -- mutation ------------------------------------------------------------

    def mark_many(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Mark a batch of ``(rows[k], cols[k])`` entries; idempotent."""
        keys = self._batch_keys(rows, cols)
        if keys.size:
            self._assign_keys(np.union1d(self._keys(), keys))

    def unmark_many(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Remove a batch of ``(rows[k], cols[k])`` marked entries.

        All or nothing: an unmarked entry, or one repeated within the
        batch, raises ``KeyError`` naming the first such entry and
        leaves the matrix untouched.
        """
        keys = self._batch_keys(rows, cols)
        if keys.size == 0:
            return
        marked = self._keys()
        bad = np.ones(keys.size, dtype=bool)  # repeats of an earlier entry ...
        bad[np.unique(keys, return_index=True)[1]] = False
        bad |= ~np.isin(keys, marked)  # ... and entries that are not marked
        if bad.any():
            k = int(np.argmax(bad))
            raise KeyError(f"entry ({int(rows[k])}, {int(cols[k])}) is not marked")
        self._assign_keys(np.setdiff1d(marked, keys, assume_unique=True))

    def grow(self, num_rows: int, num_cols: int) -> None:
        """Extend the matrix dimensions; existing marks are untouched.

        The incremental-append path (``repro.serve``) patches a resident
        matrix when pages are appended to a dataset: the dimensions grow
        to the new page counts, then the delta sweep ``mark_many``s the
        new/changed rows and columns.  Shrinking is refused — marks
        outside the smaller dimensions would dangle.
        """
        if num_rows < self.num_rows or num_cols < self.num_cols:
            raise ValueError(
                f"cannot shrink matrix {self.num_rows}x{self.num_cols} "
                f"to {num_rows}x{num_cols}"
            )
        self.num_rows = num_rows
        self.num_cols = num_cols
        self._index = None

    def keep_upper_triangle(self) -> None:
        """Drop entries with ``row > col`` (self-join symmetry reduction).

        A self-join marks both ``(i, j)`` and ``(j, i)``; joining one of
        them produces every result pair, so half the matrix is redundant.
        """
        keep = self._rows <= self._cols
        self._assign(self._rows[keep], self._cols[keep])

    # -- queries ------------------------------------------------------------

    def is_marked(self, row: int, col: int) -> bool:
        if not (0 <= row < self.num_rows and 0 <= col < self.num_cols):
            raise IndexError(
                f"entry ({row}, {col}) outside matrix {self.num_rows}x{self.num_cols}"
            )
        return col in self.row_cols(row)

    @property
    def num_marked(self) -> int:
        """Number of marked entries (the paper's ``e``)."""
        return int(self._rows.size)

    def marked_rows(self) -> List[int]:
        """Sorted rows that contain at least one marked entry."""
        return self.csr_index().live_rows().tolist()

    def marked_cols(self) -> List[int]:
        """Sorted columns that contain at least one marked entry."""
        return self.csr_index().live_cols().tolist()

    def row_cols(self, row: int) -> List[int]:
        """Sorted marked columns of ``row`` (empty if none)."""
        index = self.csr_index()
        return index.entry_cols[index.csr_row_ids(row)].tolist()

    def col_rows(self, col: int) -> List[int]:
        """Sorted marked rows of ``col`` (empty if none)."""
        index = self.csr_index()
        return index.entry_rows[index.csc_col_ids(col)].tolist()

    def entries(self) -> Iterator[Entry]:
        """All marked entries in row-major order."""
        return zip(self._rows.tolist(), self._cols.tolist())

    def density(self) -> float:
        """Fraction of marked entries — the join's page-level selectivity."""
        return self.num_marked / (self.num_rows * self.num_cols)

    def copy(self) -> "PredictionMatrix":
        """An independent matrix sharing the read-only coordinate arrays."""
        dup = PredictionMatrix(self.num_rows, self.num_cols)
        dup._assign(self._rows, self._cols)
        return dup

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray]:
        """Marked entries as ``(rows, cols)`` int64 arrays, row-major sorted.

        The matrix's own read-only arrays, and the persistence format of
        the matrix cache: deterministic order, loadable with
        :meth:`from_coo`.
        """
        return self._rows, self._cols

    @classmethod
    def from_coo(
        cls, num_rows: int, num_cols: int, rows: np.ndarray, cols: np.ndarray
    ) -> "PredictionMatrix":
        """A matrix marking ``(rows[k], cols[k])``, in any order, repeats allowed.

        Raises ``ValueError`` unless the coordinates are equal-length 1-d
        integer arrays, and ``IndexError`` if one lies outside the shape.
        """
        matrix = cls(num_rows, num_cols)
        matrix.mark_many(rows, cols)
        return matrix

    def csr_index(self) -> CSRWorkMatrix:
        """The matrix's own :class:`CSRWorkMatrix` index, built on first use.

        Shared and dropped on the next mutation: read it, never kill
        entries in it (take a :meth:`csr_view` for that).
        """
        if self._index is None:
            self._index = self.csr_view()
        return self._index

    def csr_view(self) -> CSRWorkMatrix:
        """A fresh :class:`CSRWorkMatrix` over the marked entries.

        Independent of this matrix: killing entries in the view does not
        unmark them here (clustering consumes it as a working copy).
        """
        return CSRWorkMatrix(self.num_rows, self.num_cols, self._rows, self._cols)

    def to_dense(self) -> np.ndarray:
        """Dense boolean array (small matrices / tests / visualisation)."""
        dense = np.zeros((self.num_rows, self.num_cols), dtype=bool)
        dense[self._rows, self._cols] = True
        return dense

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredictionMatrix):
            return NotImplemented
        return (
            self.num_rows == other.num_rows
            and self.num_cols == other.num_cols
            and np.array_equal(self._rows, other._rows)
            and np.array_equal(self._cols, other._cols)
        )

    def __repr__(self) -> str:
        return (
            f"PredictionMatrix({self.num_rows}x{self.num_cols}, "
            f"marked={self.num_marked}, density={self.density():.4f})"
        )

    # -- the coordinate arrays ------------------------------------------------

    def _assign(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Rebind the marks to fresh (or already read-only) sorted arrays."""
        rows.flags.writeable = False
        cols.flags.writeable = False
        self._rows, self._cols = rows, cols
        self._index: Optional[CSRWorkMatrix] = None

    def _keys(self) -> np.ndarray:
        """Row-major entry keys ``row * num_cols + col`` (ascending)."""
        return self._rows * np.int64(self.num_cols) + self._cols

    def _assign_keys(self, keys: np.ndarray) -> None:
        rows, cols = np.divmod(keys, np.int64(self.num_cols))
        self._assign(rows, cols)

    def _batch_keys(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Validated keys of a batch of entries, in batch order."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(
                f"rows and cols must be 1-d arrays of equal length, "
                f"got shapes {rows.shape} and {cols.shape}"
            )
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise ValueError(
                f"coordinates must be integers, got {rows.dtype} and {cols.dtype}"
            )
        rows = rows.astype(np.int64, copy=False)
        cols = cols.astype(np.int64, copy=False)
        if rows.size and (
            rows.min() < 0
            or rows.max() >= self.num_rows
            or cols.min() < 0
            or cols.max() >= self.num_cols
        ):
            raise IndexError(
                f"batch contains entries outside matrix {self.num_rows}x{self.num_cols}"
            )
        return rows * np.int64(self.num_cols) + cols
