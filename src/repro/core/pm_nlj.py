"""pm-NLJ: nested-loop join restricted to marked page pairs (Figure 4).

The simplest use of the prediction matrix: iterate like block NLJ, but
only ever read pages that appear in a marked entry.

* If all marked pages of one side fit into ``B − 1`` buffer frames, read
  them once and stream the other side's marked pages past them — exactly
  ``m_s + m_r`` reads.
* Otherwise stream one marked page of the outer (smaller-marked) side at a
  time and pull the inner side's marked partners through an LRU buffer of
  ``B − 1`` frames; Lemma 1 lower-bounds this at ``e + min(r, c)`` reads
  per dense region (LRU reuse across consecutive outer pages can do
  better on overlapping regions).
"""

from __future__ import annotations

from repro.core.executor import ExecutionOutcome
from repro.core.joiners import PagePairJoiner
from repro.core.prediction import PredictionMatrix
from repro.storage.buffer import BufferPool
from repro.storage.page import PagedDataset

__all__ = ["pm_nlj_join"]


def pm_nlj_join(
    matrix: PredictionMatrix,
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    page_pair_join: PagePairJoiner,
) -> ExecutionOutcome:
    """Join every marked page pair of ``matrix``; returns measurements."""
    pool.attach(r_dataset)
    pool.attach(s_dataset)
    outcome = ExecutionOutcome()
    marked_rows = matrix.marked_rows()
    marked_cols = matrix.marked_cols()
    if not marked_rows:
        return outcome
    capacity = pool.capacity

    if len(marked_cols) <= capacity - 1:
        _pinned_side_join(
            matrix, pool, r_dataset, s_dataset, page_pair_join, outcome,
            pin_cols=True,
        )
    elif len(marked_rows) <= capacity - 1:
        _pinned_side_join(
            matrix, pool, r_dataset, s_dataset, page_pair_join, outcome,
            pin_cols=False,
        )
    else:
        _streaming_join(matrix, pool, r_dataset, s_dataset, page_pair_join, outcome)
    return outcome


def _pinned_side_join(
    matrix: PredictionMatrix,
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    page_pair_join: PagePairJoiner,
    outcome: ExecutionOutcome,
    pin_cols: bool,
) -> None:
    """One side's marked pages fit in buffer: load once, stream the other.

    The streamed pages bypass the pool (each is used for one iteration
    only), so the pinned side is never evicted — this is Figure 4's
    "read all of them into buffer" branch.
    """
    r_id, s_id = r_dataset.dataset_id, s_dataset.dataset_id
    if pin_cols:
        pinned_keys = [(s_id, col) for col in matrix.marked_cols()]
        stream_pages = matrix.marked_rows()
        stream_dataset, stream_id = r_dataset, r_id
    else:
        pinned_keys = [(r_id, row) for row in matrix.marked_rows()]
        stream_pages = matrix.marked_cols()
        stream_dataset, stream_id = s_dataset, s_id

    # A real pin scope, not just the docstring's promise: the side fits in
    # B − 1 frames by the caller's branch condition, streamed pages bypass
    # the pool, and partner fetches all hit — so the pins never change the
    # accounting; they assert the "never evicted" invariant structurally.
    with pool.pinned(pinned_keys) as staged:
        outcome.pages_read += len(staged.missing)
        outcome.pages_reused += len(pinned_keys) - len(staged.missing)

        for page in stream_pages:
            if pool.contains(stream_id, page):
                # Self join: the page arrived with the pinned side already.
                stream_payload = pool.fetch(stream_id, page)
                outcome.pages_reused += 1
            else:
                pool.disk.read(stream_id, page)
                stream_payload = stream_dataset.page_objects(page)
                outcome.pages_read += 1
            partners = matrix.row_cols(page) if pin_cols else matrix.col_rows(page)
            for partner in partners:
                if pin_cols:
                    row, col = page, partner
                    r_payload, s_payload = stream_payload, pool.fetch(s_id, col)
                else:
                    row, col = partner, page
                    r_payload, s_payload = pool.fetch(r_id, row), stream_payload
                _join_entry(page_pair_join, row, col, r_payload, s_payload, outcome)


def _streaming_join(
    matrix: PredictionMatrix,
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    page_pair_join: PagePairJoiner,
    outcome: ExecutionOutcome,
) -> None:
    """Neither side fits: stream the smaller-marked side's pages one by one.

    For each outer page, its marked partners are read as a fresh block
    (ascending page order, so runs of consecutive pages stay sequential).
    Per Figure 4 and Example 1 of the paper, the partner block is *not*
    retained across outer iterations — pm-NLJ's floor is exactly Lemma 1's
    ``e + min(r, c)`` reads; holding partners over is the job of the
    clustering techniques, not of pm-NLJ.
    """
    r_id, s_id = r_dataset.dataset_id, s_dataset.dataset_id
    rows_outer = len(matrix.marked_rows()) <= len(matrix.marked_cols())
    disk = pool.disk
    outer_pages = matrix.marked_rows() if rows_outer else matrix.marked_cols()
    outer_id = r_id if rows_outer else s_id
    outer_dataset = r_dataset if rows_outer else s_dataset
    inner_id = s_id if rows_outer else r_id
    inner_dataset = s_dataset if rows_outer else r_dataset

    for page in outer_pages:
        disk.read(outer_id, page)
        outer_payload = outer_dataset.page_objects(page)
        outcome.pages_read += 1
        partners = matrix.row_cols(page) if rows_outer else matrix.col_rows(page)
        for partner in partners:  # ascending: consecutive partners run sequentially
            if inner_id == outer_id and partner == page:
                inner_payload = outer_payload
                outcome.pages_reused += 1
            else:
                disk.read(inner_id, partner)
                inner_payload = inner_dataset.page_objects(partner)
                outcome.pages_read += 1
            if rows_outer:
                row, col = page, partner
                r_payload, s_payload = outer_payload, inner_payload
            else:
                row, col = partner, page
                r_payload, s_payload = inner_payload, outer_payload
            _join_entry(page_pair_join, row, col, r_payload, s_payload, outcome)


def _join_entry(
    page_pair_join: PagePairJoiner,
    row: int,
    col: int,
    r_payload,
    s_payload,
    outcome: ExecutionOutcome,
) -> None:
    outcome.absorb(page_pair_join(row, col, r_payload, s_payload))
