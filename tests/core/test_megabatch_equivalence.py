"""Mega-batch vs per-pair equivalence: the cluster-granular execution
engine must be observationally identical to the classic per-page-pair
path — pairs (order included), every simulated cost, every semantic
counter and every Lemma audit — with only the kernel invocation counts
(``BATCHING_VARIANT_COUNTERS``) allowed to differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join
from repro.datasets import markov_dna
from repro.obs import (
    BACKEND_VARIANT_COUNTER_PREFIXES,
    BATCHING_VARIANT_COUNTERS,
    InMemoryRecorder,
)
from repro.sequence.subjoin import subsequence_join


def _semantic_counters(recorder: InMemoryRecorder) -> dict:
    counters = recorder.metrics_snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name not in BATCHING_VARIANT_COUNTERS
        and not name.startswith(BACKEND_VARIANT_COUNTER_PREFIXES)
    }


def _run(r, s, epsilon, *, batch_pairs, method="sc", workers=1, **kwargs):
    rec = InMemoryRecorder()
    result = join(
        r, s, epsilon, method=method, buffer_pages=10, workers=workers,
        batch_pairs=batch_pairs, recorder=rec, **kwargs
    )
    return result, rec


def _assert_identical(baseline, candidate):
    """Bit-identical observable behaviour between two join runs."""
    base_result, base_rec = baseline
    cand_result, cand_rec = candidate
    assert cand_result.pairs == base_result.pairs
    br, cr = base_result.report, cand_result.report
    assert cr.result_pairs == br.result_pairs
    assert cr.comparisons == br.comparisons
    assert cr.cpu_seconds == br.cpu_seconds
    assert cr.io_seconds == br.io_seconds
    assert cr.page_reads == br.page_reads
    assert cr.seeks == br.seeks
    assert cr.buffer_hits == br.buffer_hits
    assert cr.extra["pages_reused"] == br.extra["pages_reused"]
    assert _semantic_counters(cand_rec) == _semantic_counters(base_rec)


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
        baseline = _run(r, s, 0.05, batch_pairs=1, method=method, workers=workers)
        megabatch = _run(r, s, 0.05, batch_pairs=None, method=method, workers=workers)
        _assert_identical(baseline, megabatch)

    def test_manhattan_megabatch_matches_per_pair(self, small_points, rng):
        other = np.clip(
            small_points[:200] + rng.normal(scale=0.02, size=(200, 2)), 0, 1
        )
        r = IndexedDataset.from_points(small_points, page_capacity=16, p=1.0)
        s = IndexedDataset.from_points(other, page_capacity=16, p=1.0)
        baseline = _run(r, s, 0.05, batch_pairs=1)
        megabatch = _run(r, s, 0.05, batch_pairs=None)
        _assert_identical(baseline, megabatch)

    def test_self_join_diagonal_filter_survives_batching(self, vector_pair):
        r, _ = vector_pair
        baseline = _run(r, r, 0.03, batch_pairs=1)
        megabatch = _run(r, r, 0.03, batch_pairs=None)
        _assert_identical(baseline, megabatch)
        # Self matches really are excluded, not merely equal on both paths.
        assert all(a < b for a, b in megabatch[0].pairs)

    def test_intermediate_batch_sizes_rejected(self, vector_pair):
        # Only the two granularities exist: None (mega-batch) and 1.
        r, s = vector_pair
        for batch_pairs in (2, 3, 7):
            with pytest.raises(ValueError, match="batch_pairs"):
                _run(r, s, 0.05, batch_pairs=batch_pairs)
            with pytest.raises(ValueError, match="batch_pairs"):
                _run(r, s, 0.05, batch_pairs=batch_pairs, workers=2)

    def test_count_only_cardinality_matches(self, vector_pair):
        r, s = vector_pair
        baseline = _run(r, s, 0.05, batch_pairs=1, count_only=True)
        megabatch = _run(r, s, 0.05, batch_pairs=None, count_only=True)
        _assert_identical(baseline, megabatch)
        assert megabatch[0].pairs == []
        assert megabatch[0].num_pairs > 0


class TestSequenceEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_series_window_join_matches(self, series_pair, workers):
        r, s = series_pair
        baseline = _run(r, s, 0.5, batch_pairs=1, workers=workers)
        megabatch = _run(r, s, 0.5, batch_pairs=None, workers=workers)
        _assert_identical(baseline, megabatch)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dtw_join_matches(self, dtw_pair, workers):
        r, s = dtw_pair
        baseline = _run(r, s, 0.6, batch_pairs=1, workers=workers)
        megabatch = _run(r, s, 0.6, batch_pairs=None, workers=workers)
        _assert_identical(baseline, megabatch)
        assert baseline[0].num_pairs > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0])
    def test_text_join_matches(self, text_pair, workers, epsilon):
        # epsilon spans the joiner's three regimes: Hamming-only accept
        # (0), Hamming accept/reject (1), and the DP fallback (2).
        r, s = text_pair
        baseline = _run(r, s, epsilon, batch_pairs=1, workers=workers)
        megabatch = _run(r, s, epsilon, batch_pairs=None, workers=workers)
        _assert_identical(baseline, megabatch)

    def test_text_self_join_matches(self, dna_dataset):
        baseline = _run(dna_dataset, dna_dataset, 1.0, batch_pairs=1)
        megabatch = _run(dna_dataset, dna_dataset, 1.0, batch_pairs=None)
        _assert_identical(baseline, megabatch)
        assert all(a < b for a, b in megabatch[0].pairs)

    def test_subsequence_join_batch_pairs_passthrough(self):
        text = markov_dna(800, seed=9)
        per_pair = subsequence_join(
            text, None, window_length=6, epsilon=1.0,
            buffer_pages=6, windows_per_page=16, batch_pairs=1,
        )
        fused = subsequence_join(
            text, None, window_length=6, epsilon=1.0,
            buffer_pages=6, windows_per_page=16,
        )
        assert fused.offsets == per_pair.offsets
        assert fused.report.page_reads == per_pair.report.page_reads


class TestInvariantsUnderBatching:
    def test_lemma_audits_identical(self, vector_pair):
        r, s = vector_pair
        audits = []
        for batch_pairs in (1, None):
            _, rec = _run(r, s, 0.05, batch_pairs=batch_pairs)
            counters = rec.metrics_snapshot()["counters"]
            audits.append(
                (
                    counters["lemma.clusters_audited"],
                    counters.get("lemma.violations", 0),
                )
            )
        assert audits[0] == audits[1]
        assert audits[0][1] == 0

    def test_megabatch_marker_counters_present(self, vector_pair):
        r, s = vector_pair
        _, rec = _run(r, s, 0.05, batch_pairs=None)
        counters = rec.metrics_snapshot()["counters"]
        assert counters["executor.megabatch_clusters"] == counters["executor.clusters"]
        assert counters["kernel.minkowski.invocations"] > 0
        _, rec_pp = _run(r, s, 0.05, batch_pairs=1)
        counters_pp = rec_pp.metrics_snapshot()["counters"]
        assert "executor.megabatch_clusters" not in counters_pp
        # Fewer kernel launches is the point of the mega-batch.
        assert (
            counters["kernel.minkowski.invocations"]
            < counters_pp["kernel.minkowski.invocations"]
        )

    def test_plain_callable_joiner_falls_back(self, vector_pair, pool):
        from repro.core.executor import execute_clusters
        from repro.core.square import square_clustering
        from repro.core.sweep import build_prediction_matrix

        r, s = vector_pair
        matrix, _ = build_prediction_matrix(
            r.index.root, s.index.root, 0.05, r.num_pages, s.num_pages
        )
        clusters, _ = square_clustering(matrix, pool.capacity)
        calls = []

        def counting_joiner(row, col, r_payload, s_payload):
            calls.append((row, col))
            return [], 0, 0, 0.0

        execute_clusters(clusters, pool, r.paged, s.paged, counting_joiner)
        assert len(calls) == matrix.num_marked

    def test_batch_pairs_validation(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(ValueError, match="batch_pairs"):
            join(r, s, 0.05, buffer_pages=10, batch_pairs=0)


class TestNonLruPolicies:
    """FIFO/MRU victims may differ with pins; pins only ever avoid
    re-reads, so results stay equal and physical reads never increase."""

    @pytest.mark.parametrize("policy", ["fifo", "mru"])
    def test_results_equal_and_reads_bounded(self, vector_pair, policy):
        r, s = vector_pair
        per_pair, _ = _run(r, s, 0.05, batch_pairs=1, buffer_policy=policy)
        fused, _ = _run(r, s, 0.05, batch_pairs=None, buffer_policy=policy)
        assert fused.pairs == per_pair.pairs
        assert fused.report.comparisons == per_pair.report.comparisons
        assert fused.report.page_reads <= per_pair.report.page_reads
