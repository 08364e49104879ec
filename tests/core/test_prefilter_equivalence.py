"""Prefilter equivalence: the approximate prefilter changes a join's
answer only through the cells it unmarks.

A join with ``prefilter="approximate"`` must return exactly the
unfiltered answer restricted to the page pairs that stay marked, and it
must be observationally identical — pairs (order included), every
simulated cost field, every counter — across worker counts and serial vs
process-sharded execution over any partition shape, and its mega-batch
execution must equal per-pair joiner calls over the same schedule.
Only the batching/sharding kernel-shape counters may differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join
from repro.datasets import markov_dna
from repro.obs import (
    BACKEND_VARIANT_COUNTER_PREFIXES,
    BATCHING_VARIANT_COUNTERS,
    SHARDING_VARIANT_COUNTER_PREFIXES,
    InMemoryRecorder,
)
from repro.sketch.config import PrefilterConfig


def _stable_counters(recorder: InMemoryRecorder) -> dict:
    counters = recorder.metrics_snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name not in BATCHING_VARIANT_COUNTERS
        and not name.startswith(SHARDING_VARIANT_COUNTER_PREFIXES)
        and not name.startswith(BACKEND_VARIANT_COUNTER_PREFIXES)
    }


def _run(r, s, epsilon, *, prefilter, workers=1, shard_strategy=None, **kwargs):
    rec = InMemoryRecorder()
    result = join(
        r, s, epsilon, method="sc", buffer_pages=10, workers=workers,
        shard_strategy=shard_strategy, prefilter=prefilter, recorder=rec,
        **kwargs,
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
    assert cr.extra["prefilter"] == br.extra["prefilter"]
    assert _stable_counters(cand_rec) == _stable_counters(base_rec)


def _page_of(dataset):
    paged = dataset.paged
    if dataset.kind == "vector":
        return paged.page_of_object
    return paged.page_of_offset


def _check_prefilter(r, s, epsilon, prefilter="approximate", **candidate_kwargs):
    """Unfiltered answer restricted to surviving cells, on every path.

    Returns the serial prefiltered run after checking that (a) its pairs
    are exactly the unfiltered pairs whose page pair stays marked and
    (b) a run with ``candidate_kwargs`` (workers, shard strategy)
    reproduces it bit for bit.  A callable ``shard_strategy`` receives
    the serial schedule's cluster count and returns the plan to run.
    """
    unfiltered, _ = _run(r, s, epsilon, prefilter=None)
    serial = _run(r, s, epsilon, prefilter=prefilter, keep_details=True)
    strategy = candidate_kwargs.get("shard_strategy")
    if callable(strategy):
        candidate_kwargs["shard_strategy"] = strategy(len(serial[0].clusters))
    matrix = serial[0].matrix
    r_page, s_page = _page_of(r), _page_of(s)
    surviving = {
        (a, b)
        for a, b in unfiltered.pairs
        if matrix.is_marked(r_page(a), s_page(b))
    }
    assert set(serial[0].pairs) == surviving
    assert serial[0].report.extra["prefilter"]["cells_unmarked"] > 0
    _assert_identical(serial, _run(r, s, epsilon, prefilter=prefilter, **candidate_kwargs))
    return serial[0]


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


class TestExactModeIdentity:
    """Every joiner kind × workers × serial/sharded: the prefiltered join
    is exactly the unfiltered one minus unmarked cells."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_vector_join(self, vector_pair, workers):
        r, s = vector_pair
        result = _check_prefilter(r, s, 0.05, workers=workers)
        assert result.num_pairs > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_series_join(self, series_pair, workers):
        r, s = series_pair
        _check_prefilter(r, s, 0.5, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dtw_join(self, dtw_pair, workers):
        r, s = dtw_pair
        result = _check_prefilter(r, s, 0.6, workers=workers)
        assert result.num_pairs > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_text_join(self, text_pair, workers):
        r, s = text_pair
        _check_prefilter(r, s, 1.0, workers=workers)

    @pytest.mark.parametrize("shard_strategy", ["affinity", "chunk"])
    def test_sharded_vector_join(
        self, vector_pair, shard_strategy, shard_strategy_for
    ):
        r, s = vector_pair
        _check_prefilter(
            r, s, 0.05, workers=2,
            shard_strategy=lambda n: shard_strategy_for(shard_strategy, n, 2),
        )

    def test_sharded_text_join(self, text_pair):
        r, s = text_pair
        _check_prefilter(r, s, 1.0, workers=2, shard_strategy="affinity")

    def test_self_join(self, vector_pair):
        r, _ = vector_pair
        result = _check_prefilter(r, r, 0.03, workers=2)
        assert all(a < b for a, b in result.pairs)

    def test_per_pair_path_identity(self, vector_pair, per_pair_outcome):
        r, s = vector_pair
        result = _check_prefilter(r, s, 0.05, workers=2)
        per_pair = per_pair_outcome(r, s, 0.05, result.clusters)
        assert result.pairs == per_pair.pairs
        assert result.report.comparisons == per_pair.comparisons
        assert result.report.cpu_seconds == per_pair.cpu_seconds

    def test_exact_config_object(self, vector_pair):
        r, s = vector_pair
        config = PrefilterConfig(recall_target=0.95, num_hashes=4)
        result = _check_prefilter(r, s, 0.05, prefilter=config, workers=2)
        assert result.report.extra["prefilter"]["mode"] == "approximate"

    def test_subsequence_join_forwards_prefilter(self):
        from repro.sequence.subjoin import subsequence_join

        dna = markov_dna(2500, seed=7)
        kwargs = dict(
            window_length=24, epsilon=1, method="sc",
            buffer_pages=16, windows_per_page=32,
        )
        baseline = subsequence_join(dna, None, **kwargs)
        approx = subsequence_join(dna, None, prefilter="approximate", **kwargs)
        assert approx.report.extra["prefilter"]["mode"] == "approximate"
        assert approx.report.extra["prefilter"]["cells_scored"] > 0
        assert set(approx.offsets) <= set(baseline.offsets)
        configured = subsequence_join(
            dna, None, prefilter=PrefilterConfig(recall_target=0.99), **kwargs
        )
        assert configured.offsets == approx.offsets


class TestPrefilterValidation:
    def test_rejected_for_competitor_methods(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(ValueError, match="prefilter"):
            join(r, s, 0.05, method="nlj", buffer_pages=10, prefilter="approximate")

    def test_rejected_for_unknown_mode(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(ValueError, match="prefilter"):
            join(r, s, 0.05, buffer_pages=10, prefilter="fuzzy")

    def test_exact_mode_removed(self, vector_pair):
        # "exact" is not a mode: asking for it must fail loudly rather
        # than silently run the approximate cascade.
        r, s = vector_pair
        with pytest.raises(ValueError, match="prefilter"):
            join(r, s, 0.05, buffer_pages=10, prefilter="exact")
        with pytest.raises(TypeError, match="mode"):
            PrefilterConfig(mode="exact")
        with pytest.raises(TypeError, match="mode"):
            PrefilterConfig(mode="approximate")

    def test_rejected_for_wrong_type(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(TypeError, match="prefilter"):
            join(r, s, 0.05, buffer_pages=10, prefilter=42)


class TestPrefilterTelemetry:
    def test_prefilter_counters_and_span_present(self, vector_pair):
        r, s = vector_pair
        result, rec = _run(r, s, 0.05, prefilter="approximate")
        counters = rec.metrics_snapshot()["counters"]
        assert counters["prefilter.cells_scored"] > 0
        assert counters["prefilter.cells_unmarked"] > 0
        assert counters["prefilter.sketch_builds"] == 2
        spans = [s.name for s in rec.spans]
        assert "join.prefilter" in spans
        stage_seconds = result.report.extra["stage_seconds"]
        assert stage_seconds["prefilter"] > 0.0
        info = result.report.extra["prefilter"]
        assert info["mode"] == "approximate"
        assert info["cells_scored"] == counters["prefilter.cells_scored"]
        assert info["cells_unmarked"] == counters["prefilter.cells_unmarked"]
        assert 0.0 < info["est_recall"] <= 1.0

    def test_no_prefilter_keys_without_prefilter(self, vector_pair):
        r, s = vector_pair
        result, rec = _run(r, s, 0.05, prefilter=None)
        counters = rec.metrics_snapshot()["counters"]
        assert not any(k.startswith("prefilter.") for k in counters)
        assert "prefilter" not in result.report.extra
        assert result.report.extra["stage_seconds"]["prefilter"] == 0.0

    def test_sharded_counters_match_serial(self, vector_pair):
        # prefilter.* counters are NOT sharding-variant: the parent plans
        # the prefilter before execution, whichever executor runs.
        r, s = vector_pair
        _, serial_rec = _run(r, s, 0.05, prefilter="approximate")
        _, sharded_rec = _run(
            r, s, 0.05, prefilter="approximate", workers=2,
            shard_strategy="affinity",
        )

        def prefilter_counters(rec):
            counters = rec.metrics_snapshot()["counters"]
            return {k: v for k, v in counters.items() if k.startswith("prefilter.")}

        serial = prefilter_counters(serial_rec)
        assert serial["prefilter.cells_unmarked"] > 0
        assert prefilter_counters(sharded_rec) == serial
