"""Cross-backend join equivalence (ISSUE 8 tentpole acceptance).

Every registered kernel backend must be *observationally identical* on
full joins — pairs (order included), every simulated cost field, every
recorder counter except the per-backend invocation tally itself —
across joiner kinds (vector, DTW sequence, text), worker counts {1, 2},
and serial vs process-sharded execution.  The per-backend counters are
additionally checked directly: they must appear under the selected
backend's name, and their shard sums must equal the serial totals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join
from repro.datasets import markov_dna
from repro.kernels import registered_backends
from repro.obs import (
    BACKEND_VARIANT_COUNTER_PREFIXES,
    BATCHING_VARIANT_COUNTERS,
    SHARDING_VARIANT_COUNTER_PREFIXES,
    InMemoryRecorder,
)
from repro.storage.shm import shm_available

BACKENDS = sorted(registered_backends())


def _semantic_counters(recorder: InMemoryRecorder) -> dict:
    """Counters that must match across backends and execution modes."""
    return {
        name: value
        for name, value in recorder.metrics_snapshot()["counters"].items()
        if name not in BATCHING_VARIANT_COUNTERS
        and not name.startswith(SHARDING_VARIANT_COUNTER_PREFIXES)
        and not name.startswith(BACKEND_VARIANT_COUNTER_PREFIXES)
    }


def _backend_counters(recorder: InMemoryRecorder) -> dict:
    return {
        name: value
        for name, value in recorder.metrics_snapshot()["counters"].items()
        if name.startswith(BACKEND_VARIANT_COUNTER_PREFIXES)
    }


def _run(r, s, epsilon, *, backend, workers=1, shard_strategy=None):
    rec = InMemoryRecorder()
    result = join(
        r, s, epsilon, method="sc", buffer_pages=10, workers=workers,
        shard_strategy=shard_strategy, kernel_backend=backend, recorder=rec,
    )
    return result, rec


def _assert_identical(baseline, candidate):
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
    assert _semantic_counters(cand_rec) == _semantic_counters(base_rec)


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


class TestBackendsIdentical:
    """numpy is the oracle; every other backend must match it exactly."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_vector_join(self, vector_pair, backend, workers):
        r, s = vector_pair
        baseline = _run(r, s, 0.05, backend="numpy", workers=workers)
        candidate = _run(r, s, 0.05, backend=backend, workers=workers)
        _assert_identical(baseline, candidate)
        assert baseline[0].num_pairs > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dtw_join(self, dtw_pair, backend, workers):
        r, s = dtw_pair
        baseline = _run(r, s, 0.6, backend="numpy", workers=workers)
        candidate = _run(r, s, 0.6, backend=backend, workers=workers)
        _assert_identical(baseline, candidate)
        assert baseline[0].num_pairs > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_text_join(self, text_pair, backend, workers):
        r, s = text_pair
        baseline = _run(r, s, 2.0, backend="numpy", workers=workers)
        candidate = _run(r, s, 2.0, backend=backend, workers=workers)
        _assert_identical(baseline, candidate)
        assert baseline[0].num_pairs > 0


@pytest.mark.skipif(not shm_available(), reason="platform without usable shared memory")
class TestShardedBackendParity:
    """Per-backend counters are NOT sharding-variant: each worker runs
    the same clusters it would serially, so shard sums equal serial
    totals — checked here with the backend counters *included*."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dtw_join_sharded_matches_serial(self, dtw_pair, backend):
        r, s = dtw_pair
        serial = _run(r, s, 0.6, backend=backend)
        sharded = _run(
            r, s, 0.6, backend=backend, workers=2, shard_strategy="affinity"
        )
        _assert_identical(serial, sharded)
        assert _backend_counters(sharded[1]) == _backend_counters(serial[1])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_text_join_sharded_matches_serial(
        self, text_pair, backend, hand_built_shard_plan
    ):
        r, s = text_pair
        serial = _run(r, s, 2.0, backend=backend)
        contiguous = hand_built_shard_plan(
            "chunk", serial[0].report.extra["num_clusters"], 2
        )
        sharded = _run(
            r, s, 2.0, backend=backend, workers=2, shard_strategy=contiguous
        )
        _assert_identical(serial, sharded)
        assert _backend_counters(sharded[1]) == _backend_counters(serial[1])


class TestBackendObservability:
    """Satellite 4: the backend is visible in spans and counters."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_megabatch_span_carries_backend_attr(self, dtw_pair, backend):
        r, s = dtw_pair
        _, rec = _run(r, s, 0.6, backend=backend)
        spans = [sp for sp in rec.spans if sp.name == "execute.megabatch"]
        assert spans
        assert all(sp.attrs.get("kernel_backend") == backend for sp in spans)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dtw_invocation_counter_named_after_backend(self, dtw_pair, backend):
        r, s = dtw_pair
        _, rec = _run(r, s, 0.6, backend=backend)
        counters = _backend_counters(rec)
        assert counters.get(f"kernel.backend.{backend}.dtw.invocations", 0) > 0
        # Only the selected backend's counters exist.
        assert all(name.startswith(f"kernel.backend.{backend}.") for name in counters)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edit_invocation_counter_named_after_backend(self, text_pair, backend):
        r, s = text_pair
        _, rec = _run(r, s, 2.0, backend=backend)
        counters = _backend_counters(rec)
        assert counters.get(f"kernel.backend.{backend}.edit.invocations", 0) > 0
