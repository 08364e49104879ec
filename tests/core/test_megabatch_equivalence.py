"""Mega-batch vs per-pair equivalence: the cluster executor's fused
cascade must be observationally identical to calling the joiner once per
marked page pair over the same schedule — pairs (order included), every
simulated cost, every semantic counter and every Lemma audit — with only
the kernel invocation counts (``BATCHING_VARIANT_COUNTERS``) allowed to
differ.

The per-pair oracle lives here: it replays the schedule page pair by page
pair through the joiner's ``__call__`` (the page-at-a-time form the
NLJ-family methods use), staging each cluster with an unpinned batched
load and fetching both pages of every entry through the buffer pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.executor import ExecutionOutcome, execute_clusters
from repro.core.join import IndexedDataset, _make_joiner, join
from repro.costmodel import DEFAULT_COST_MODEL
from repro.datasets import markov_dna
from repro.obs import (
    BACKEND_VARIANT_COUNTER_PREFIXES,
    BATCHING_VARIANT_COUNTERS,
    SHARDING_VARIANT_COUNTER_PREFIXES,
    InMemoryRecorder,
    LemmaAuditor,
)
from repro.sequence.subjoin import subsequence_join
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

BUFFER_PAGES = 10

# Counter families the oracle produces: joiner, kernel, I/O and audit.
# The join-level families (matrix, sweep, clustering, schedule, executor
# bookkeeping) have no per-pair counterpart.
_ORACLE_FAMILIES = ("refine.", "kernel.", "text.", "disk.", "buffer.", "lemma.")


def _semantic_counters(recorder: InMemoryRecorder) -> dict:
    counters = recorder.metrics_snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(_ORACLE_FAMILIES)
        and name not in BATCHING_VARIANT_COUNTERS
        and not name.startswith(BACKEND_VARIANT_COUNTER_PREFIXES)
        and not name.startswith(SHARDING_VARIANT_COUNTER_PREFIXES)
    }


def _run(r, s, epsilon, *, method="sc", workers=1, **kwargs):
    """The engine under test: ``join`` with its mega-batch executor."""
    rec = InMemoryRecorder()
    result = join(
        r, s, epsilon, method=method, buffer_pages=BUFFER_PAGES,
        workers=workers, recorder=rec, keep_details=True, **kwargs
    )
    return result, rec


def _per_pair(r, s, epsilon, ordered, *, count_only=False, buffer_policy="lru"):
    """Oracle: join the schedule one page pair at a time.

    Returns ``(outcome, disk_stats, recorder)`` for the same schedule the
    engine ran, on a fresh disk and buffer of the same size and policy.
    """
    rec = InMemoryRecorder()
    disk = SimulatedDisk(DEFAULT_COST_MODEL, recorder=rec)
    pool = BufferPool(disk, BUFFER_PAGES, policy=buffer_policy)
    pool.attach(r.paged)
    pool.attach(s.paged)
    joiner = _make_joiner(
        r, s, epsilon, DEFAULT_COST_MODEL, r is s, not count_only, rec
    )
    auditor = LemmaAuditor(rec)
    outcome = ExecutionOutcome()
    r_id, s_id = r.paged.dataset_id, s.paged.dataset_id
    for index, cluster in enumerate(ordered):
        transfers_before = disk.stats.transfers
        wanted = sorted(cluster.page_keys(r_id, s_id))
        missing = pool.load_batch(wanted)
        outcome.pages_read += len(missing)
        outcome.pages_reused += len(wanted) - len(missing)
        for row, col in cluster.entries:
            r_payload = pool.fetch(r_id, row)
            s_payload = pool.fetch(s_id, col)
            outcome.absorb(joiner(row, col, r_payload, s_payload))
        auditor.check_cluster(cluster, disk.stats.transfers - transfers_before, index)
    return outcome, disk.stats, rec


def _assert_matches_per_pair(r, s, epsilon, run, **oracle_kwargs):
    """Bit-identical observable behaviour between a join and the oracle."""
    result, rec = run
    outcome, stats, oracle_rec = _per_pair(
        r, s, epsilon, result.clusters, **oracle_kwargs
    )
    assert result.pairs == outcome.pairs
    report = result.report
    assert report.result_pairs == outcome.num_pairs
    assert report.comparisons == outcome.comparisons
    assert report.cpu_seconds == outcome.cpu_seconds
    assert report.io_seconds == stats.io_seconds
    assert report.page_reads == stats.transfers
    assert report.seeks == stats.seeks
    assert report.buffer_hits == stats.buffer_hits
    assert report.extra["pages_reused"] == outcome.pages_reused
    assert _semantic_counters(rec) == _semantic_counters(oracle_rec)
    return outcome, oracle_rec


@pytest.fixture(scope="module")
def series_pair():
    rng = np.random.default_rng(7)
    walk = np.cumsum(rng.normal(size=600))
    r = IndexedDataset.from_time_series(walk, window_length=16, windows_per_page=32)
    s = IndexedDataset.from_time_series(
        walk[100:500] + rng.normal(scale=0.05, size=400),
        window_length=16,
        windows_per_page=32,
    )
    return r, s


@pytest.fixture(scope="module")
def dtw_pair():
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(size=500))
    r = IndexedDataset.from_time_series(
        walk, window_length=12, windows_per_page=24, dtw_band=2
    )
    s = IndexedDataset.from_time_series(
        walk[50:450] + rng.normal(scale=0.05, size=400),
        window_length=12,
        windows_per_page=24,
        dtw_band=2,
    )
    return r, s


@pytest.fixture(scope="module")
def text_pair():
    r = IndexedDataset.from_string(
        markov_dna(1200, seed=5), window_length=8, windows_per_page=24
    )
    s = IndexedDataset.from_string(
        markov_dna(900, seed=6), window_length=8, windows_per_page=24
    )
    return r, s


class TestVectorEquivalence:
    @pytest.mark.parametrize("method", ["sc", "cc"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_euclidean_megabatch_matches_per_pair(self, vector_pair, method, workers):
        r, s = vector_pair
        run = _run(r, s, 0.05, method=method, workers=workers)
        _assert_matches_per_pair(r, s, 0.05, run)

    def test_manhattan_megabatch_matches_per_pair(self, small_points, rng):
        other = np.clip(
            small_points[:200] + rng.normal(scale=0.02, size=(200, 2)), 0, 1
        )
        r = IndexedDataset.from_points(small_points, page_capacity=16, p=1.0)
        s = IndexedDataset.from_points(other, page_capacity=16, p=1.0)
        _assert_matches_per_pair(r, s, 0.05, _run(r, s, 0.05))

    def test_self_join_diagonal_filter_survives_batching(self, vector_pair):
        r, _ = vector_pair
        run = _run(r, r, 0.03)
        _assert_matches_per_pair(r, r, 0.03, run)
        # Self matches really are excluded, not merely equal on both paths.
        assert all(a < b for a, b in run[0].pairs)

    def test_intermediate_batch_sizes_rejected(self, vector_pair):
        # There is one granularity, the mega-batch: chunk sizes are an
        # unknown keyword, serial and sharded alike.
        r, s = vector_pair
        for batch_pairs in (2, 3, 7):
            with pytest.raises(TypeError, match="batch_pairs"):
                join(r, s, 0.05, buffer_pages=10, batch_pairs=batch_pairs)
            with pytest.raises(TypeError, match="batch_pairs"):
                join(r, s, 0.05, buffer_pages=10, workers=2,
                     batch_pairs=batch_pairs)

    def test_count_only_cardinality_matches(self, vector_pair):
        r, s = vector_pair
        run = _run(r, s, 0.05, count_only=True)
        _assert_matches_per_pair(r, s, 0.05, run, count_only=True)
        assert run[0].pairs == []
        assert run[0].num_pairs > 0


class TestSequenceEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_series_window_join_matches(self, series_pair, workers):
        r, s = series_pair
        _assert_matches_per_pair(r, s, 0.5, _run(r, s, 0.5, workers=workers))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dtw_join_matches(self, dtw_pair, workers):
        r, s = dtw_pair
        run = _run(r, s, 0.6, workers=workers)
        _assert_matches_per_pair(r, s, 0.6, run)
        assert run[0].num_pairs > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 1.5, 2.0])
    def test_text_join_matches(self, text_pair, workers, epsilon):
        # epsilon spans the joiner's three regimes: Hamming-only accept
        # (0), Hamming accept/reject (1), and the DP fallback (2); 1.5
        # puts the integer FD filter's floor(2 eps) limit between steps.
        r, s = text_pair
        run = _run(r, s, epsilon, workers=workers)
        _assert_matches_per_pair(r, s, epsilon, run)

    def test_text_self_join_matches(self, dna_dataset):
        run = _run(dna_dataset, dna_dataset, 1.0)
        _assert_matches_per_pair(dna_dataset, dna_dataset, 1.0, run)
        assert all(a < b for a, b in run[0].pairs)

    def test_subsequence_join_matches(self):
        text = markov_dna(800, seed=9)
        fused = subsequence_join(
            text, None, window_length=6, epsilon=1.0,
            buffer_pages=BUFFER_PAGES, windows_per_page=16,
        )
        ds = IndexedDataset.from_string(text, window_length=6, windows_per_page=16)
        run = _run(ds, ds, 1.0)
        assert fused.offsets == run[0].pairs
        outcome, _ = _assert_matches_per_pair(ds, ds, 1.0, run)
        assert fused.report.page_reads == run[0].report.page_reads
        assert fused.offsets == outcome.pairs


class TestInvariantsUnderBatching:
    def test_lemma_audits_identical(self, vector_pair):
        r, s = vector_pair
        run = _run(r, s, 0.05)
        _, oracle_rec = _assert_matches_per_pair(r, s, 0.05, run)
        audits = [
            (
                counters["lemma.clusters_audited"],
                counters.get("lemma.violations", 0),
            )
            for counters in (
                run[1].metrics_snapshot()["counters"],
                oracle_rec.metrics_snapshot()["counters"],
            )
        ]
        assert audits[0] == audits[1]
        assert audits[0][1] == 0

    def test_megabatch_marker_counters_present(self, vector_pair):
        r, s = vector_pair
        result, rec = _run(r, s, 0.05)
        counters = rec.metrics_snapshot()["counters"]
        megabatch_spans = [sp for sp in rec.spans if sp.name == "execute.megabatch"]
        assert len(megabatch_spans) == counters["executor.clusters"]
        assert "executor.megabatch_clusters" not in counters
        assert counters["kernel.minkowski.invocations"] > 0
        _, _, oracle_rec = _per_pair(r, s, 0.05, result.clusters)
        counters_pp = oracle_rec.metrics_snapshot()["counters"]
        # Fewer kernel launches is the point of the mega-batch.
        assert (
            counters["kernel.minkowski.invocations"]
            < counters_pp["kernel.minkowski.invocations"]
        )

    def test_one_call_per_cluster(self, vector_pair, pool):
        from repro.core.square import square_clustering
        from repro.core.sweep import build_prediction_matrix

        r, s = vector_pair
        matrix, _ = build_prediction_matrix(
            r.index.root, s.index.root, 0.05, r.num_pages, s.num_pages
        )
        clusters, _ = square_clustering(matrix, pool.capacity)
        calls = []

        class CountingJoiner:
            def __call__(self, row, col, r_payload, s_payload):
                raise AssertionError("the executor never joins page by page")

            def join_cluster(self, entries):
                calls.append(list(entries))
                return [([], 0, 0, 0.0) for _ in entries]

        execute_clusters(clusters, pool, r.paged, s.paged, CountingJoiner())
        assert calls == [list(cluster.entries) for cluster in clusters]
        assert sum(map(len, calls)) == matrix.num_marked

    def test_batch_pairs_validation(self, vector_pair):
        # The per-pair granularity and its option are gone: the values
        # that used to select a granularity are an unknown keyword too,
        # at every entry point.
        r, s = vector_pair
        for batch_pairs in (None, 1):
            with pytest.raises(TypeError, match="batch_pairs"):
                join(r, s, 0.05, buffer_pages=10, batch_pairs=batch_pairs)
            with pytest.raises(TypeError, match="batch_pairs"):
                join(r, s, 0.05, buffer_pages=10, workers=2,
                     batch_pairs=batch_pairs)
        with pytest.raises(TypeError, match="batch_pairs"):
            subsequence_join("ACGTACGT", None, window_length=4, epsilon=0,
                             batch_pairs=1)


class TestNonLruPolicies:
    """FIFO/MRU victims may differ with pins; pins only ever avoid
    re-reads, so results stay equal and physical reads never increase."""

    @pytest.mark.parametrize("policy", ["fifo", "mru"])
    def test_results_equal_and_reads_bounded(self, vector_pair, policy):
        r, s = vector_pair
        fused, _ = _run(r, s, 0.05, buffer_policy=policy)
        per_pair, stats, _ = _per_pair(
            r, s, 0.05, fused.clusters, buffer_policy=policy
        )
        assert fused.pairs == per_pair.pairs
        assert fused.report.comparisons == per_pair.comparisons
        assert fused.report.page_reads <= stats.transfers
