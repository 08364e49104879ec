"""Cost-based clustering — CC (Section 7.2, Figure 8).

CC builds one cluster at a time:

1. a 2-D density histogram over the remaining marked entries picks the
   densest bucket; a seed entry is drawn from it;
2. the cluster starts as the 1×1 rectangle covering the seed and grows one
   *step* at a time — each step extends the rectangle vertically (to the
   nearest remaining marked row beyond the boundary that has an entry
   inside the current column span) or horizontally (symmetric), whichever
   increases the exact disk cost of reading the cluster's pages the least.
   The two directions are the two cost-sorted lists of Fagin's threshold
   algorithm (:mod:`repro.core.ta`);
3. growth stops when the cluster's pages fill the buffer; all marked
   entries inside the final rectangle are assigned and removed.

The exact cost of a cluster is the optimally-scheduled read cost of its
marked row and column pages under the linear disk model (random seek +
sequential transfer), so CC prefers dense clusters with pages that are
physically adjacent — the paper uses it as an approximate lower bound on
achievable I/O cost.  The paper bounds CC by O(e^{3/2}) cost
evaluations; what this implementation removes is the cost *per
evaluation*.  The page layout arrives as a :class:`LinearDiskModelCost`
(the structured form of ``disk.cost_of_read_set``), which lets each TA
expansion step compute its exact cost delta incrementally: the cluster's
physical blocks live in a presence bitmap with running transfer/adjacency
counters, so evaluating a candidate move touches only the pages the move
would add, instead of re-sorting and re-scheduling the whole page set
per candidate.  The resulting ``(transfers, seeks)`` integers feed the
same :meth:`CostModel.io_cost` expression the full scheduler uses, which
keeps every float — and therefore every growth decision — bit-identical
to the frozen reference
(``cost_clustering_reference`` in ``tests/oracles/clusters_reference.py``), which
takes the equivalent page-set callable.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.core.clusters import Cluster
from repro.core.prediction import CSRWorkMatrix, PredictionMatrix
from repro.costmodel import CostModel
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "cost_clustering",
    "CostClusteringStats",
    "LinearDiskModelCost",
]

_DEFAULT_HISTOGRAM_BINS = 32


@dataclass
class CostClusteringStats:
    """Work counters (CC's preprocessing cost in the experiment tables)."""

    seeds_drawn: int = 0
    expansion_steps: int = 0
    cost_evaluations: int = 0
    entries_scanned: int = 0

    @property
    def total_operations(self) -> int:
        return self.expansion_steps * 4 + self.cost_evaluations * 8 + self.entries_scanned


class LinearDiskModelCost:
    """Physical layout of the matrix pages under the linear disk model.

    ``row_blocks[i]`` / ``col_blocks[j]`` are the physical block
    addresses of row page ``i`` and column page ``j``; a page appearing
    as both (self join) maps to one block.  The read cost of a page set
    is ``io_cost(transfers=#blocks, seeks=#runs)`` — exactly what
    :meth:`SimulatedDisk.cost_of_read_set` charges — but exposing the
    structure lets CC maintain the blocks incrementally instead of
    sorting the set per evaluation.
    """

    def __init__(
        self,
        row_blocks: np.ndarray,
        col_blocks: np.ndarray,
        cost_model: CostModel,
    ) -> None:
        self.row_blocks = np.ascontiguousarray(row_blocks, dtype=np.int64)
        self.col_blocks = np.ascontiguousarray(col_blocks, dtype=np.int64)
        if self.row_blocks.ndim != 1 or self.col_blocks.ndim != 1:
            raise ValueError("row_blocks and col_blocks must be 1-d arrays")
        if (self.row_blocks.size and self.row_blocks.min() < 0) or (
            self.col_blocks.size and self.col_blocks.min() < 0
        ):
            raise ValueError("block addresses must be non-negative")
        self.cost_model = cost_model

    @classmethod
    def from_disk(
        cls,
        disk,
        r_dataset_id: Hashable,
        s_dataset_id: Hashable,
        num_rows: int,
        num_cols: int,
    ) -> "LinearDiskModelCost":
        """Layout of two datasets already placed on a :class:`SimulatedDisk`.

        Extents are contiguous by construction, so each side is its base
        block plus the page number.
        """
        row_base = disk.block_of(r_dataset_id, 0)
        col_base = disk.block_of(s_dataset_id, 0)
        return cls(
            row_base + np.arange(num_rows, dtype=np.int64),
            col_base + np.arange(num_cols, dtype=np.int64),
            disk.cost_model,
        )

    def page_set_io(self, row_pages, col_pages) -> Tuple[int, int, float]:
        """``(transfers, seeks, io_seconds)`` of reading a page set cold.

        Prices the optimally-scheduled (sorted-order) read of the named
        row/column pages: duplicate blocks (self-join pages named on both
        sides) transfer once, and each maximal run of consecutive block
        addresses costs one seek — the same accounting as
        :meth:`SimulatedDisk.cost_of_read_set`.  This is the per-cluster
        *cold* disk-cost prediction the EXPLAIN artifact snapshots for
        every planned cluster.
        """
        rows = np.asarray(sorted(row_pages), dtype=np.int64)
        cols = np.asarray(sorted(col_pages), dtype=np.int64)
        blocks = np.unique(
            np.concatenate([self.row_blocks[rows], self.col_blocks[cols]])
        )
        if blocks.size == 0:
            return 0, 0, 0.0
        transfers = int(blocks.size)
        seeks = 1 + int(np.count_nonzero(np.diff(blocks) != 1))
        return transfers, seeks, self.cost_model.io_cost(transfers, seeks)


class _BlockSet:
    """The cluster's physical blocks with running transfer/seek counters.

    ``seeks = transfers - adjacencies`` where an adjacency is a pair of
    consecutive block addresses both present (each maximal run of
    consecutive blocks costs one seek).  Inserting a batch of candidate
    blocks is O(batch), and a candidate can be priced without mutating.
    """

    def __init__(self, max_block: int) -> None:
        # Shifted by one so block-neighbour probes never index out of range.
        self._present = np.zeros(max_block + 3, dtype=bool)
        self.transfers = 0
        self.adjacencies = 0

    @property
    def seeks(self) -> int:
        """One seek per maximal run of consecutive blocks."""
        return self.transfers - self.adjacencies

    def preview(self, blocks: List[int]) -> Tuple[int, int]:
        """(transfers, seeks) if ``blocks`` were inserted; no mutation."""
        return self._advance(blocks, write=False)

    def insert(self, blocks: List[int]) -> None:
        """Insert ``blocks`` (duplicates and already-present allowed)."""
        self.transfers, seeks = self._advance(blocks, write=True)
        self.adjacencies = self.transfers - seeks

    def _advance(self, blocks: List[int], write: bool) -> Tuple[int, int]:
        present = self._present
        n = self.transfers
        adj = self.adjacencies
        fresh: List[int] = []
        # Ascending order makes every new-new adjacency visible to the
        # later block of the pair.
        for block in sorted(blocks):
            if present[block + 1] or block in fresh:
                continue
            n += 1
            if present[block] or (block - 1) in fresh:  # left neighbour
                adj += 1
            if present[block + 2]:  # right neighbour (committed only)
                adj += 1
            fresh.append(block)
        if write:
            for block in fresh:
                present[block + 1] = True
        return n, n - adj


class _Move:
    """One rectangle expansion step over the CSR view.

    ``added_rows``/``added_cols`` are plain int lists — every consumer
    (page-set unions, block pricing, rectangle bookkeeping) iterates them
    as Python ints, so converting once at construction avoids repeated
    ``tolist`` calls on the hot path.
    """

    __slots__ = (
        "kind",
        "new_bound",
        "entry_ids",
        "added_rows",
        "added_cols",
        "blocks",
        "live_idx",
    )

    def __init__(
        self,
        kind: str,
        new_bound: int,
        entry_ids: np.ndarray,
        added_rows: List[int],
        added_cols: List[int],
        live_idx: int,
    ) -> None:
        self.kind = kind  # "row" or "col"
        self.new_bound = new_bound
        self.entry_ids = entry_ids
        self.added_rows = added_rows
        self.added_cols = added_cols
        self.blocks: Optional[List[int]] = None  # memoised _move_blocks
        self.live_idx = live_idx  # position in the side's live-page array


class _Rectangle:
    """The growing cluster rectangle plus its marked row/col page sets."""

    def __init__(
        self,
        seed_row: int,
        seed_col: int,
        seed_id: int,
        in_rect: np.ndarray,
    ) -> None:
        self.row_lo = self.row_hi = seed_row
        self.col_lo = self.col_hi = seed_col
        self.rows: Set[int] = {seed_row}
        self.cols: Set[int] = {seed_col}
        self.num_entries = 1
        self.in_rect = in_rect
        in_rect[seed_id] = True

    @property
    def num_pages(self) -> int:
        return len(self.rows) + len(self.cols)

    def apply(self, move: _Move) -> None:
        if move.kind == "row":
            self.row_lo = min(self.row_lo, move.new_bound)
            self.row_hi = max(self.row_hi, move.new_bound)
        else:
            self.col_lo = min(self.col_lo, move.new_bound)
            self.col_hi = max(self.col_hi, move.new_bound)
        self.rows.update(move.added_rows)
        self.cols.update(move.added_cols)
        self.in_rect[move.entry_ids] = True
        self.num_entries += int(move.entry_ids.size)


def cost_clustering(
    matrix: PredictionMatrix,
    buffer_pages: int,
    page_set_cost: LinearDiskModelCost,
    histogram_bins: int = _DEFAULT_HISTOGRAM_BINS,
    rng: np.random.Generator | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> Tuple[List[Cluster], CostClusteringStats]:
    """Partition the marked entries into cost-minimal buffer-fitting clusters.

    Parameters
    ----------
    matrix:
        The prediction matrix; not modified.
    buffer_pages:
        Buffer size ``B``; every cluster satisfies ``rows + cols <= B``.
    page_set_cost:
        The physical page layout and cost model the exact read costs are
        priced under (see :meth:`LinearDiskModelCost.from_disk`).
    histogram_bins:
        Density histogram resolution per axis (clipped to matrix shape).
    rng:
        Seed-entry source within the densest bucket.  ``None`` picks the
        lexicographically smallest entry, making CC fully deterministic.
    """
    if buffer_pages < 2:
        raise ValueError(f"buffer must hold at least 2 pages, got {buffer_pages}")
    if histogram_bins < 1:
        raise ValueError(f"histogram_bins must be positive, got {histogram_bins}")

    work = matrix.csr_view()
    stats = CostClusteringStats()
    clusters: List[Cluster] = []
    in_rect = np.zeros(work.entry_rows.size, dtype=bool)
    histogram = _BucketHistogram(work, histogram_bins)
    # Retired entry positions in CSR (= entry-id) and CSC order, kept
    # sorted by merging each cluster's batch; the boundary scans count a
    # span's dead entries by binary search instead of a prefix-sum
    # rebuilt per cluster.  ``csc_rank`` maps an entry id to its CSC
    # position (static per view).
    csc_rank = np.empty(work.entry_rows.size, dtype=np.int64)
    csc_rank[work.csc_entries] = np.arange(work.entry_rows.size, dtype=np.int64)
    dead_row_ids = dead_csc_ids = None
    while work.num_marked:
        if work.num_marked * 2 < work.entry_rows.size:
            # Entry ids are transient within one cluster, so renumbering
            # between clusters changes no decision; the scratches must be
            # resized because ids now address the compacted view.
            work = work.compacted()
            in_rect = np.zeros(work.entry_rows.size, dtype=bool)
            histogram = _BucketHistogram(work, histogram_bins)
            csc_rank = np.empty(work.entry_rows.size, dtype=np.int64)
            csc_rank[work.csc_entries] = np.arange(
                work.entry_rows.size, dtype=np.int64
            )
            dead_row_ids = dead_csc_ids = None
        seed_row, seed_col, seed_id = _draw_seed(work, histogram, rng, stats)
        rect = _grow_cluster(
            work,
            seed_row,
            seed_col,
            seed_id,
            buffer_pages,
            page_set_cost,
            stats,
            in_rect,
            dead_row_ids,
            dead_csc_ids,
        )
        # Assign every remaining marked entry inside the final rectangle.
        assigned = _entry_ids_in_rect(work, rect)
        entries = tuple(
            zip(
                work.entry_rows[assigned].tolist(),
                work.entry_cols[assigned].tolist(),
            )
        )
        work.kill(assigned)
        histogram.remove(assigned)
        dead_row_ids = _merge_sorted(dead_row_ids, assigned)
        dead_csc_ids = _merge_sorted(dead_csc_ids, np.sort(csc_rank[assigned]))
        # Killed entries are invisible to every later query, so the
        # in_rect scratch needs no reset between clusters.
        cluster = Cluster(cluster_id=len(clusters), entries=entries)
        clusters.append(cluster)
        if recorder.enabled:
            recorder.observe("cc.cluster_entries", cluster.num_entries)
            recorder.observe("cc.cluster_pages", cluster.num_pages)
    # Mirror the growth-step counters into the metrics registry (the
    # stats object remains the CPU-cost source of truth).
    recorder.count("cc.clusters_built", len(clusters))
    recorder.count("cc.seeds_drawn", stats.seeds_drawn)
    recorder.count("cc.expansion_steps", stats.expansion_steps)
    recorder.count("cc.cost_evaluations", stats.cost_evaluations)
    recorder.count("cc.entries_scanned", stats.entries_scanned)
    return clusters, stats


def _merge_sorted(base: Optional[np.ndarray], fresh: np.ndarray) -> np.ndarray:
    """Merge a sorted batch into a sorted array (``base`` may be ``None``)."""
    if base is None:
        return fresh
    return np.insert(base, base.searchsorted(fresh), fresh)


# -- seeding ---------------------------------------------------------------


class _BucketHistogram:
    """Live-entry density histogram, maintained incrementally.

    An entry's bucket depends only on its coordinates, so membership is
    static for a view's life: a stable argsort of the bucket keys groups
    each bucket's entry ids in row-major order once, and per-bucket live
    counts are decremented as clusters retire entries.  A seed draw then
    costs O(buckets + densest-bucket size) instead of a full live scan.
    """

    __slots__ = ("key", "counts", "order", "starts")

    def __init__(self, work: CSRWorkMatrix, bins: int) -> None:
        bins_r = min(bins, work.num_rows)
        bins_c = min(bins, work.num_cols)
        self.key = (work.entry_rows * bins_r // work.num_rows) * bins_c + (
            work.entry_cols * bins_c // work.num_cols
        )
        num_buckets = bins_r * bins_c
        self.counts = np.bincount(self.key, minlength=num_buckets)
        self.order = np.argsort(self.key, kind="stable")
        self.starts = np.zeros(num_buckets + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.starts[1:])

    def remove(self, entry_ids: np.ndarray) -> None:
        self.counts -= np.bincount(self.key[entry_ids], minlength=self.counts.size)

    def densest_members(self, alive: np.ndarray) -> np.ndarray:
        """Live entry ids of the densest bucket, in row-major order."""
        densest = int(self.counts.argmax())
        group = self.order[self.starts[densest] : self.starts[densest + 1]]
        return group[alive[group]]


def _draw_seed(
    work: CSRWorkMatrix,
    histogram: _BucketHistogram,
    rng: np.random.Generator | None,
    stats: CostClusteringStats,
) -> Tuple[int, int, int]:
    """Densest-bucket seed selection (Figure 8, steps 2 and 3.a)."""
    stats.seeds_drawn += 1
    # The scalar reference buckets every live entry per draw; the counter
    # must still reflect that conceptual scan.
    stats.entries_scanned += int(work.num_marked)
    members = histogram.densest_members(work.alive)
    if rng is None:
        # Entry ids are row-major, so the first live member is the
        # lexicographically smallest (row, col) of the densest bucket.
        entry = int(members[0])
    else:
        # The reference draws rng.choice over an equally long array of
        # member positions; choice consumes the stream as a function of
        # the population size alone, so picking directly from the
        # same-order entry ids lands on the same entry.
        entry = int(rng.choice(members))
    return int(work.entry_rows[entry]), int(work.entry_cols[entry]), entry


# -- growth ------------------------------------------------------------------


def _grow_cluster(
    work: CSRWorkMatrix,
    seed_row: int,
    seed_col: int,
    seed_id: int,
    buffer_pages: int,
    spec: LinearDiskModelCost,
    stats: CostClusteringStats,
    in_rect: np.ndarray,
    dead_row_ids: Optional[np.ndarray],
    dead_csc_ids: Optional[np.ndarray],
) -> _Rectangle:
    rect = _Rectangle(seed_row, seed_col, seed_id, in_rect)
    blocks = _BlockSet(
        int(max(spec.row_blocks.max(initial=0), spec.col_blocks.max(initial=0)))
    )
    blocks.insert(_page_blocks(spec, rect.rows, rect.cols))
    base_cost = spec.cost_model.io_cost(blocks.transfers, blocks.seeks)
    stats.cost_evaluations += 1

    # Live rows/columns are static while one cluster grows (removal
    # happens after growth), so the boundary scans probe these snapshots.
    # The sorted retired positions let the scans count live entries in
    # any key span with two searchsorted probes, and the key bases turn
    # every (page, span) slice into one searchsorted pair.  A freshly
    # compacted view has no dead entries at all; ``None`` lets every
    # consumer skip the liveness arithmetic.
    live_rows = work.live_rows()
    live_cols = work.live_cols()
    row_base = live_rows * np.int64(work.num_cols)
    col_base = live_cols * np.int64(work.num_rows)

    # A row's span only depends on the rectangle's *column* bounds and
    # vice versa, so each side's probe results survive any move of its
    # own kind and are recomputed only after an opposite-kind move.  The
    # rectangle's boundary positions within live_rows/live_cols advance
    # with the applied move, so they never need re-probing.
    row_span = _side_spans(
        work.row_keys, row_base, rect.col_lo, rect.col_hi, dead_row_ids
    )
    col_span = _side_spans(
        work.csc_keys, col_base, rect.row_lo, rect.row_hi, dead_csc_ids
    )
    below_r = int(live_rows.searchsorted(seed_row))
    above_r = below_r + 1
    below_c = int(live_cols.searchsorted(seed_col))
    above_c = below_c + 1

    def exact_delta(move: _Move) -> float:
        stats.cost_evaluations += 1
        if move.blocks is None:
            move.blocks = _move_blocks(spec, rect, move)
        transfers, seeks = blocks.preview(move.blocks)
        return spec.cost_model.io_cost(transfers, seeks) - base_cost

    while rect.num_pages < buffer_pages and work.num_marked > rect.num_entries:
        moves = _candidate_moves(
            work,
            live_rows,
            live_cols,
            row_span,
            col_span,
            below_r,
            above_r,
            below_c,
            above_c,
        )
        if not moves:
            break

        # The reference runs threshold_argmin over the two gap-sorted move
        # lists with all-zero lower bounds; under zero bounds TA's walk is
        # fully determined — it drains the row list, then the column list,
        # and stops as soon as the best exact delta is <= 0 — so the same
        # trajectory is replayed here without the iterator machinery.
        best_move: Optional[_Move] = None
        best_delta = float("inf")
        for move in _cost_sorted([m for m in moves if m.kind == "row"], rect) + (
            _cost_sorted([m for m in moves if m.kind == "col"], rect)
        ):
            if best_move is not None and best_delta <= 0.0:
                break
            delta = exact_delta(move)
            if delta < best_delta:
                best_move, best_delta = move, delta
        if best_move is None:
            break
        new_row_count = len(rect.rows | set(best_move.added_rows))
        new_col_count = len(rect.cols | set(best_move.added_cols))
        if new_row_count + new_col_count > buffer_pages:
            break
        if best_move.blocks is None:
            best_move.blocks = _move_blocks(spec, rect, best_move)
        blocks.insert(best_move.blocks)
        if best_move.kind == "row":
            outward = best_move.new_bound > rect.row_hi
            rect.apply(best_move)
            if outward:
                above_r = best_move.live_idx + 1
            else:
                below_r = best_move.live_idx
            col_span = _side_spans(
                work.csc_keys, col_base, rect.row_lo, rect.row_hi, dead_csc_ids
            )
        else:
            outward = best_move.new_bound > rect.col_hi
            rect.apply(best_move)
            if outward:
                above_c = best_move.live_idx + 1
            else:
                below_c = best_move.live_idx
            row_span = _side_spans(
                work.row_keys, row_base, rect.col_lo, rect.col_hi, dead_row_ids
            )
        base_cost += best_delta
        stats.expansion_steps += 1
    return rect


def _page_blocks(spec: LinearDiskModelCost, rows, cols) -> List[int]:
    """Physical blocks of the given row/col pages (self-join dedup later)."""
    return [int(spec.row_blocks[r]) for r in rows] + [
        int(spec.col_blocks[c]) for c in cols
    ]


def _move_blocks(spec: LinearDiskModelCost, rect: _Rectangle, move: _Move) -> List[int]:
    """Blocks a move would add (pages not already in the rectangle)."""
    fresh: List[int] = []
    for row in move.added_rows:
        if row not in rect.rows:
            fresh.append(int(spec.row_blocks[row]))
    for col in move.added_cols:
        if col not in rect.cols:
            fresh.append(int(spec.col_blocks[col]))
    return fresh


def _cost_sorted(moves: List[_Move], rect: _Rectangle) -> List[_Move]:
    """One TA list: moves ordered by rectangle-boundary gap (a valid bound).

    A move's cost grows with how far the rectangle must stretch, so the
    gap-ordered list is ascending in the (zero) lower bound the reference
    exposes to ``threshold_argmin``; the grower replays TA's walk over
    these lists inline.
    """
    def gap(move: _Move) -> int:
        if move.kind == "row":
            return min(abs(move.new_bound - rect.row_lo), abs(move.new_bound - rect.row_hi))
        return min(abs(move.new_bound - rect.col_lo), abs(move.new_bound - rect.col_hi))

    return sorted(moves, key=gap)


_SideSpans = Tuple[np.ndarray, np.ndarray, List[int], Optional[np.ndarray]]


def _side_spans(
    keys: np.ndarray,
    base: np.ndarray,
    span_lo: int,
    span_hi: int,
    dead_ids: Optional[np.ndarray],
) -> _SideSpans:
    """Per-page entry spans within ``[span_lo, span_hi]`` for one side.

    The compound keys turn each (page, span) slice into one
    ``searchsorted`` pair over all pages at once, and the sorted dead
    positions count each span's dead entries with another pair — O(log)
    in the retired total instead of an O(entries) prefix-sum rebuild per
    cluster.  Returns ``(lo, hi, useful, span_dead)`` where ``useful``
    lists the pages whose span holds at least one live entry (a plain
    list: the nearest-page rank lookups use ``bisect``, which beats array
    dispatch at this size) and ``span_dead`` holds per-page dead counts
    (``None`` when the view has no dead entries at all).
    """
    lo = keys.searchsorted(base + span_lo)
    hi = keys.searchsorted(base + span_hi, side="right")
    if dead_ids is None:
        useful = np.flatnonzero(hi > lo)
        span_dead = None
    else:
        span_dead = dead_ids.searchsorted(hi) - dead_ids.searchsorted(lo)
        useful = np.flatnonzero((hi - lo) - span_dead > 0)
    return lo, hi, useful.tolist(), span_dead


def _row_move(
    work: CSRWorkMatrix,
    live_rows: np.ndarray,
    span: _SideSpans,
    k: int,
) -> _Move:
    lo, hi = int(span[0][k]), int(span[1][k])
    ids = np.arange(lo, hi, dtype=np.int64)
    dead = span[3]
    if dead is not None and dead[k]:
        ids = ids[work.alive[ids]]
    row = int(live_rows[k])
    return _Move("row", row, ids, [row], work.entry_cols[ids].tolist(), k)


def _col_move(
    work: CSRWorkMatrix,
    live_cols: np.ndarray,
    span: _SideSpans,
    k: int,
) -> _Move:
    lo, hi = int(span[0][k]), int(span[1][k])
    ids = work.csc_entries[lo:hi]
    dead = span[3]
    if dead is not None and dead[k]:
        ids = ids[work.alive[ids]]
    col = int(live_cols[k])
    return _Move("col", col, ids, work.entry_rows[ids].tolist(), [col], k)


def _candidate_moves(
    work: CSRWorkMatrix,
    live_rows: np.ndarray,
    live_cols: np.ndarray,
    row_span: _SideSpans,
    col_span: _SideSpans,
    below_r: int,
    above_r: int,
    below_c: int,
    above_c: int,
) -> List[_Move]:
    """Nearest useful expansion on each of the four sides.

    The nearest useful page beyond each boundary is a rank lookup in the
    side's ``useful`` index list.  A candidate's entries cannot be in the
    current rectangle (the page lies outside its bounds) and earlier
    clusters' entries are dead, so ``alive`` alone decides usability when
    a move materialises — and even that check is skipped when the span's
    dead count shows every entry is live.
    """
    moves: List[_Move] = []

    useful = row_span[2]
    t = bisect.bisect_left(useful, above_r)
    if t < len(useful):  # nearest useful row past the high boundary
        moves.append(_row_move(work, live_rows, row_span, useful[t]))
    t = bisect.bisect_left(useful, below_r) - 1
    if t >= 0:  # nearest useful row before the low boundary
        moves.append(_row_move(work, live_rows, row_span, useful[t]))

    useful = col_span[2]
    t = bisect.bisect_left(useful, above_c)
    if t < len(useful):
        moves.append(_col_move(work, live_cols, col_span, useful[t]))
    t = bisect.bisect_left(useful, below_c) - 1
    if t >= 0:
        moves.append(_col_move(work, live_cols, col_span, useful[t]))
    return moves


def _entry_ids_in_rect(work: CSRWorkMatrix, rect: _Rectangle) -> np.ndarray:
    """Live entry ids inside the rectangle, row-major (= sorted) order."""
    start = int(work.row_indptr[rect.row_lo])
    stop = int(work.row_indptr[rect.row_hi + 1])
    ids = np.arange(start, stop, dtype=np.int64)
    cols = work.entry_cols[ids]
    mask = work.alive[ids] & (cols >= rect.col_lo) & (cols <= rect.col_hi)
    return ids[mask]
