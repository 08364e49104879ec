"""Batch workloads: one client running full joins back to back.

``spatial`` and ``spatial-sharded`` join the LBeach x MCounty stand-ins
at scale 0.5; ``genome`` self-joins the HChr18 stand-in at scale 0.005.
The untraced run times ``join()`` itself.  The traced run composes the
same pipeline from the public layer functions, wraps a span around each
call, and checks that the composition reproduces ``join()`` exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import benchmath
import hostspeed
import inputs
import oracles
from benchmath import Tracer, median

from repro.core.executor import execute_clusters, execute_clusters_sharded
from repro.core.join import IndexedDataset, join
from repro.core.joiners import make_numeric_joiner, make_text_joiner
from repro.core.planner import plan_shards
from repro.core.schedule import greedy_cluster_order
from repro.core.square import square_clustering
from repro.core.sweep import build_prediction_matrix
from repro.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.kernels.backends import KernelBackend, resolve_backend
from repro.obs.recorder import InMemoryRecorder
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

SPATIAL_R_POINTS = 26_572  # LBeach (53,145) at scale 0.5
SPATIAL_S_POINTS = 19_615  # MCounty (39,231) at scale 0.5
SPATIAL_PAGE_CAPACITY = 64
SPATIAL_EPSILON = 0.02
SPATIAL_BUFFER = 13
SHARD_WORKERS = 2
SHARD_STRATEGY = "affinity"

GENOME_SYMBOLS = 21_127  # HChr18 (4,225,477) at scale 0.005
GENOME_WINDOW = 192
GENOME_WINDOWS_PER_PAGE = 64
GENOME_REPEAT_SHARE = 0.10
GENOME_EPSILON = 1.0
GENOME_BUFFER = 16
GENOME_COST_MODEL = CostModel.for_page_size(4.0)


@dataclass
class Case:
    name: str
    generate: Callable[[int], object]
    index: Callable[[object], tuple]
    epsilon: float
    buffer_pages: int
    cost_model: CostModel
    sharded: bool
    oracle: Callable[[object, IndexedDataset, IndexedDataset], np.ndarray]
    keys: Callable[[list], np.ndarray]


def _spatial_inputs(seed: int):
    return (
        inputs.points(SPATIAL_R_POINTS, 0, seed),
        inputs.points(SPATIAL_S_POINTS, 1, seed),
    )


def _spatial_index(raw):
    return tuple(
        IndexedDataset.from_points(points, page_capacity=SPATIAL_PAGE_CAPACITY)
        for points in raw
    )


def _spatial_oracle(raw, r, s):
    # The join reports ids in the index's reordered layout.
    return oracles.points_within(r.paged.vectors, s.paged.vectors, SPATIAL_EPSILON)


def _genome_inputs(seed: int):
    return inputs.dna(GENOME_SYMBOLS, 0, seed, GENOME_REPEAT_SHARE, GENOME_WINDOWS_PER_PAGE)


def _genome_index(text):
    genome = IndexedDataset.from_string(
        text, window_length=GENOME_WINDOW, windows_per_page=GENOME_WINDOWS_PER_PAGE
    )
    return genome, genome


def _genome_oracle(text, r, s):
    return oracles.windows_within_one_edit(text, GENOME_WINDOW)


def _case(name: str) -> Case:
    if name in ("spatial", "spatial-sharded"):
        return Case(
            name, _spatial_inputs, _spatial_index, SPATIAL_EPSILON, SPATIAL_BUFFER,
            DEFAULT_COST_MODEL, name == "spatial-sharded", _spatial_oracle,
            oracles.pair_keys,
        )
    if name == "genome":
        return Case(
            name, _genome_inputs, _genome_index, GENOME_EPSILON, GENOME_BUFFER,
            GENOME_COST_MODEL, False, _genome_oracle, oracles.unordered_keys,
        )
    raise KeyError(name)


def _setup(case: Case, seed: int, reps: int):
    """Generate and index the inputs ``reps`` times; keep the last build.

    Returns the inputs, both indexed datasets, and per build the
    ``(start, index start, end)`` clock readings.
    """
    clocks = []
    for _ in range(reps):
        t0 = time.perf_counter()
        raw = case.generate(seed)
        t1 = time.perf_counter()
        r, s = case.index(raw)
        clocks.append((t0, t1, time.perf_counter()))
    return raw, r, s, clocks


def _join(case: Case, r, s):
    kwargs = {"workers": SHARD_WORKERS, "shard_strategy": SHARD_STRATEGY} if case.sharded else {}
    return join(
        r, s, case.epsilon, method="sc", buffer_pages=case.buffer_pages,
        cost_model=case.cost_model, **kwargs,
    )


def _fingerprint(result) -> tuple:
    """Everything two runs of one join must agree on, pairs included."""
    report = result.report
    return (
        len(result.pairs), hash(tuple(result.pairs)), report.page_reads, report.seeks,
        report.preprocess_seconds, report.cpu_seconds, report.io_seconds,
    )


def vmhwm_mb(pid="self") -> float:
    """Peak resident set size of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


class _Checker:
    """Checks each join against the first one, and the first against the oracle.

    Results that equal the first result share its verdict; any other
    result keeps its keys and is checked against the oracle on its own.
    """

    def __init__(self, case: Case, first) -> None:
        self.case = case
        self.reference = _fingerprint(first)
        self.reference_keys = case.keys(first.pairs)
        self.same_as_reference = 0
        self.different: List[np.ndarray] = []

    def add(self, result) -> None:
        if _fingerprint(result) == self.reference:
            self.same_as_reference += 1
        else:
            self.different.append(self.case.keys(result.pairs))

    def verdict(self, truth: np.ndarray):
        """``(wrong, lowest recall)`` over every added result."""
        groups = [(keys, 1) for keys in self.different]
        if self.same_as_reference:
            groups.append((self.reference_keys, self.same_as_reference))
        wrong = sum(n for keys, n in groups if not np.array_equal(keys, truth))
        recall_min = min((_recall(keys, truth) for keys, _ in groups), default=0.0)
        return wrong, recall_min


def _recall(keys: np.ndarray, truth: np.ndarray) -> float:
    if truth.size == 0:
        return 1.0
    return float(np.isin(truth, keys, assume_unique=True).sum()) / truth.size


def run(name: str, seed: int, seconds: float, trace: bool, out_dir) -> dict:
    case = _case(name)
    with hostspeed.ProbeProcess(out_dir / f"probes-{name}.txt") as probes:
        raw, r, s, clocks = _setup(case, seed, reps=5 if case.name != "genome" else 25)
        first = _join(case, r, s)  # warm-up, also the reference result
        if trace:
            measured = _run_traced(case, raw, r, s, first, seconds, out_dir)
        else:
            measured = _run_timed(case, r, s, first, seconds)
    samples = probes.samples()

    def corrected(start: float, end: float) -> float:
        return (end - start) * hostspeed.window_factor(samples, start, end)

    setup_s = median([corrected(t0, t2) for t0, _, t2 in clocks])
    index_s = median([corrected(t1, t2) for _, t1, t2 in clocks])
    if trace:
        measured["per_layer"]["index.build_s"] = index_s
        return measured

    joins = measured.pop("intervals")
    times = [corrected(t0, t1) for t0, t1 in joins]
    wrong, recall_min = measured.pop("checker").verdict(case.oracle(raw, r, s))
    tail_value, tail_pct, n = benchmath.tail(times)
    report = first.report
    print(
        f"{name}: {len(times)} joins, {first.num_pairs} pairs each; "
        f"join_tail_s is p{tail_pct:.1f} of n={n}"
    )
    measured.update(
        wrong=wrong,
        metrics={
            "join_p50_s": (median(times), "s"),
            "join_tail_s": (tail_value, "s"),
            "throughput_rps": (len(times) / sum(times), "1/s"),
            "sim_total_s": (report.total_seconds, "s"),
            "sim_io_s": (report.io_seconds, "s"),
            "page_reads": (report.page_reads, "count"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (measured.pop("peak_rss_mb"), "MB"),
            "recall_min": (recall_min, "ratio"),
        },
        notes={
            "tail_percentile": tail_pct, "tail_n": n, "pairs": first.num_pairs,
            "raw_join_p50_s": median([t1 - t0 for t0, t1 in joins]),
        },
    )
    return measured


def _run_timed(case: Case, r, s, first, seconds: float) -> dict:
    """Back-to-back ``join()`` calls; each result is kept for checking."""
    checker = _Checker(case, first)
    intervals = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not (intervals or failed):
        t0 = time.perf_counter()
        try:
            result = _join(case, r, s)
        except Exception as exc:  # a join that raises is a failed operation
            print(f"join failed: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        intervals.append((t0, time.perf_counter()))
        checker.add(result)
        del result
    return {
        "attempted": len(intervals) + failed,
        "failed": failed,
        "intervals": intervals,
        "checker": checker,
        "peak_rss_mb": vmhwm_mb(),
    }


# -- traced composition --------------------------------------------------------------


class TimingBackend(KernelBackend):
    """Delegates every kernel hook to the default backend and times it."""

    def __init__(self, tracer: Tracer) -> None:
        self.inner = resolve_backend(None)
        self.name = self.inner.name
        self.tracer = tracer

    def dtw_chunk(self, a, b, band, max_dist):
        with self.tracer.span("kernels.refine"):
            return self.inner.dtw_chunk(a, b, band, max_dist)

    def edit_chunk(self, a, b, max_dist):
        with self.tracer.span("kernels.refine"):
            return self.inner.edit_chunk(a, b, max_dist)

    def batch_envelopes(self, windows, band):
        with self.tracer.span("kernels.filter"):
            return self.inner.batch_envelopes(windows, band)

    def lb_keogh_panel(self, left_rows, lowers, uppers):
        with self.tracer.span("kernels.filter"):
            return self.inner.lb_keogh_panel(left_rows, lowers, uppers)

    def euclidean_gram_panel(self, left_rows, right_panel, left_sq, right_sq, epsilon):
        with self.tracer.span("kernels.filter"):
            return self.inner.euclidean_gram_panel(
                left_rows, right_panel, left_sq, right_sq, epsilon
            )


@dataclass
class Composed:
    fingerprint: tuple
    counts: Dict[str, float]
    matrix: object


def composed_join(case: Case, r, s, tracer: Tracer) -> Composed:
    """``join(method="sc")`` rebuilt from its layers, one span per layer call.

    Each layer gets only the arguments this workload needs.  The sharded
    case keeps the default kernel backend: shard workers look backends up
    by name, so a timing wrapper would not reach them.
    """
    model = case.cost_model
    self_join = r is s
    recorder = InMemoryRecorder()
    with tracer.trace("join"):
        disk = SimulatedDisk(model)
        pool = BufferPool(disk, case.buffer_pages, recorder=recorder)
        pool.attach(r.paged)
        pool.attach(s.paged)
        backend = None if case.sharded else TimingBackend(tracer)
        joiner_recorder = InMemoryRecorder()
        if r.kind == "text":
            joiner = make_text_joiner(
                r.paged, s.paged, r.features, s.features, case.epsilon, model,
                self_join, recorder=joiner_recorder, kernel_backend=backend,
            )
        else:
            joiner = make_numeric_joiner(
                r.paged, s.paged, r.distance, case.epsilon, model, self_join,
                recorder=joiner_recorder, kernel_backend=backend,
            )
        with tracer.span("sweep"):
            matrix, sweep_stats = build_prediction_matrix(
                r.index.root, s.index.root, case.epsilon, r.num_pages, s.num_pages
            )
            if self_join:
                matrix.keep_upper_triangle()
        with tracer.span("square"):
            clusters, square_stats = square_clustering(matrix, case.buffer_pages)
        with tracer.span("schedule"):
            ordered = greedy_cluster_order(clusters, r.paged.dataset_id, s.paged.dataset_id)
        if case.sharded:
            with tracer.span("sharding.plan"):
                plan = plan_shards(ordered, r.paged, s.paged, SHARD_WORKERS, SHARD_STRATEGY)
            with tracer.span("sharding.execute"):
                outcome = execute_clusters_sharded(
                    ordered, pool, r.paged, s.paged, joiner,
                    workers=SHARD_WORKERS, shard_strategy=plan,
                )
        else:
            with tracer.span("executor"):
                outcome = execute_clusters(ordered, pool, r.paged, s.paged, joiner)
    # join() charges the sharing-graph construction as one operation per
    # cluster pair on top of the clustering work.
    n = len(clusters)
    preprocess = model.cpu_cost(square_stats.total_operations + n * max(1, n - 1) // 2)
    stats = disk.stats
    fingerprint = (
        len(outcome.pairs), hash(tuple(outcome.pairs)), stats.transfers, stats.seeks,
        preprocess, outcome.cpu_seconds, stats.io_seconds,
    )
    # Shard workers count into recorders of their own, so a sharded join
    # reports no candidates here.
    joiner_counts = joiner_recorder.counters
    candidates = joiner_counts.get(
        "text.fd_candidates", joiner_counts.get("kernel.minkowski.gram_candidates", 0)
    )
    counts = {
        "sweep.marked_cells": matrix.num_marked,
        "sweep.operations": sweep_stats.total_operations,
        "square.clusters": n,
        "schedule.pages_reused": outcome.pages_reused,
        "executor.candidates": candidates,
        "executor.comparisons": outcome.comparisons,
        "executor.result_pairs": outcome.num_pairs,
        "executor.filter_precision": outcome.num_pairs / candidates if candidates else 0.0,
        "storage.buffer_hit_rate": stats.buffer_hits / max(1, stats.buffer_hits + stats.transfers),
        "storage.seeks": stats.seeks,
        "storage.evictions": recorder.counters.get("buffer.evictions", 0),
    }
    if case.sharded:
        counts["sharding.duplicated_pages"] = plan.duplicated_pages
        counts["sharding.imbalance"] = max(plan.costs) / (sum(plan.costs) / len(plan.costs))
    return Composed(fingerprint, counts, matrix)


def _marked_cell_precision(pairs, matrix, r, s) -> float:
    """Share of marked cells that hold at least one result pair."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    rows = _page_of(r, arr[:, 0])
    cols = _page_of(s, arr[:, 1])
    cells = np.unique(rows * max(1, s.num_pages) + cols).size
    return cells / matrix.num_marked if matrix.num_marked else 0.0


def _page_of(dataset, ids: np.ndarray) -> np.ndarray:
    paged = dataset.paged
    if dataset.kind == "vector":
        return np.searchsorted(paged.page_offsets, ids, side="right") - 1
    return ids // paged.symbols_per_page


def _layer_times(spans) -> Dict[str, float]:
    total = benchmath.total_times(spans)
    own = benchmath.self_times(spans)
    return {
        "join": total.get("join", 0.0),
        "sweep.build_s": total.get("sweep", 0.0),
        "square.cluster_s": total.get("square", 0.0),
        "schedule.order_s": total.get("schedule", 0.0),
        "executor.execute_s": total.get("executor", 0.0),
        "executor.other_s": own.get("executor", 0.0),
        "kernels.filter_s": total.get("kernels.filter", 0.0),
        "kernels.refine_s": total.get("kernels.refine", 0.0),
        "sharding.plan_s": total.get("sharding.plan", 0.0),
        "sharding.execute_s": total.get("sharding.execute", 0.0),
        "trace.unaccounted_s": own.get("join", 0.0),
    }


def _run_traced(case: Case, raw, r, s, first, seconds, out_dir) -> dict:
    """Alternate composed traced joins with untraced ``join()`` calls."""
    reference = _fingerprint(first)
    tracer = Tracer()
    untraced: List[float] = []
    traced = 0
    wrong = failed = 0
    first_composed: Optional[Composed] = None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not (traced or failed):
        try:
            composed = composed_join(case, r, s, tracer)
        except Exception as exc:
            print(f"composed join failed: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        traced += 1
        if composed.fingerprint != reference:
            wrong += 1
        first_composed = first_composed or composed
        t0 = time.perf_counter()
        result = _join(case, r, s)
        untraced.append(time.perf_counter() - t0)
        if _fingerprint(result) != reference:
            wrong += 1
        del result
    if not np.array_equal(case.keys(first.pairs), case.oracle(raw, r, s)):
        wrong = traced + len(untraced)  # every join was held to this answer
    attempted = traced + len(untraced) + failed
    if first_composed is None:
        return {"attempted": attempted, "failed": failed, "wrong": wrong, "per_layer": {}}
    layers = benchmath.median_of_traces(tracer, _layer_times)
    traced_p50 = layers.pop("join")
    untraced_p50 = median(untraced)
    per_layer = dict(first_composed.counts)
    per_layer.update(layers)
    per_layer["sweep.precision"] = _marked_cell_precision(
        first.pairs, first_composed.matrix, r, s
    )
    per_layer["trace.overhead_pct"] = 100.0 * (traced_p50 - untraced_p50) / untraced_p50
    _print_breakdown(case.name, traced_p50, untraced_p50, layers)
    tracer.write(out_dir / f"spans-{case.name}.jsonl")
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "per_layer": per_layer,
    }


def _print_breakdown(name, traced_p50, untraced_p50, layers) -> None:
    own = {
        "sweep": layers["sweep.build_s"],
        "square": layers["square.cluster_s"],
        "schedule": layers["schedule.order_s"],
        "executor (self)": layers["executor.other_s"],
        "kernels.filter": layers["kernels.filter_s"],
        "kernels.refine": layers["kernels.refine_s"],
        "sharding.plan": layers["sharding.plan_s"],
        "sharding.execute": layers["sharding.execute_s"],
        "unaccounted": layers["trace.unaccounted_s"],
    }
    print(f"{name}: traced join p50 {traced_p50:.4f} s, untraced {untraced_p50:.4f} s")
    for layer, secs in own.items():
        if secs:
            print(f"  {layer:<18} {secs:9.4f} s  {100 * secs / traced_p50:5.1f}%")
