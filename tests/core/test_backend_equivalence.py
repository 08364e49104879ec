"""Production kernels vs the row-kernel oracle on full joins.

The production :class:`KernelBackend` (wavefront sweeps) must be
*observationally identical* to a test-local backend that runs the
row-by-row DP kernels — pairs (order included), every simulated cost
field, every recorder counter except the per-backend invocation tally
itself — across joiner kinds (vector, DTW sequence, text) and serial vs
process-sharded execution.  The oracle is swapped in as the default
backend, which only a serial join can use: shard workers rebuild their
joiners on the production backend.  ``backend`` below names the
reference run, ``workers`` the production run checked against it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join
from repro.datasets import markov_dna
from repro.kernels import backends as backends_module
from repro.kernels.backends import KernelBackend
from repro.kernels.dtw import _dtw_chunk
from repro.kernels.edit import _edit_chunk
from repro.obs import (
    BACKEND_VARIANT_COUNTER_PREFIXES,
    BATCHING_VARIANT_COUNTERS,
    SHARDING_VARIANT_COUNTER_PREFIXES,
    InMemoryRecorder,
)
from repro.storage.shm import shm_available


class RowKernelBackend(KernelBackend):
    """The row-by-row DP kernels behind the backend hooks."""

    name = "numpy"

    def dtw_chunk(self, a, b, band, max_dist):
        return _dtw_chunk(a, b, band, max_dist)

    def edit_chunk(self, a, b, max_dist):
        return _edit_chunk(a, b, max_dist)


BACKENDS = ["numpy", "wavefront"]


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


def _backend_counter_values(recorder: InMemoryRecorder) -> dict:
    """Per-backend counters keyed by kernel, the backend name dropped."""
    return {
        name.split(".", 3)[3]: value
        for name, value in _backend_counters(recorder).items()
    }


def _run(r, s, epsilon, *, workers=1, shard_strategy=None):
    rec = InMemoryRecorder()
    result = join(
        r, s, epsilon, method="sc", buffer_pages=10, workers=workers,
        shard_strategy=shard_strategy, recorder=rec,
    )
    return result, rec


def _reference(r, s, epsilon, backend, monkeypatch):
    """A serial join on the named backend."""
    if backend == "numpy":
        with monkeypatch.context() as patch:
            patch.setattr(backends_module, "_DEFAULT", RowKernelBackend())
            return _run(r, s, epsilon)
    return _run(r, s, epsilon)


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
    """The production join, serial and sharded, matches each reference."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_vector_join(self, vector_pair, backend, workers, monkeypatch):
        r, s = vector_pair
        baseline = _reference(r, s, 0.05, backend, monkeypatch)
        candidate = _run(r, s, 0.05, workers=workers)
        _assert_identical(baseline, candidate)
        assert baseline[0].num_pairs > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dtw_join(self, dtw_pair, backend, workers, monkeypatch):
        r, s = dtw_pair
        baseline = _reference(r, s, 0.6, backend, monkeypatch)
        candidate = _run(r, s, 0.6, workers=workers)
        _assert_identical(baseline, candidate)
        assert baseline[0].num_pairs > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_text_join(self, text_pair, backend, workers, monkeypatch):
        r, s = text_pair
        baseline = _reference(r, s, 2.0, backend, monkeypatch)
        candidate = _run(r, s, 2.0, workers=workers)
        _assert_identical(baseline, candidate)
        assert baseline[0].num_pairs > 0


@pytest.mark.skipif(not shm_available(), reason="platform without usable shared memory")
class TestShardedBackendParity:
    """Per-backend counters are NOT sharding-variant: each worker runs
    the same clusters it would serially, so shard sums equal serial
    totals — checked here with the backend counters *included* (by
    kernel, since the oracle's counters carry its own name)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dtw_join_sharded_matches_serial(self, dtw_pair, backend, monkeypatch):
        r, s = dtw_pair
        serial = _reference(r, s, 0.6, backend, monkeypatch)
        sharded = _run(r, s, 0.6, workers=2, shard_strategy="affinity")
        _assert_identical(serial, sharded)
        assert _backend_counter_values(sharded[1]) == _backend_counter_values(serial[1])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_text_join_sharded_matches_serial(
        self, text_pair, backend, hand_built_shard_plan, monkeypatch
    ):
        r, s = text_pair
        serial = _reference(r, s, 2.0, backend, monkeypatch)
        contiguous = hand_built_shard_plan(
            "chunk", serial[0].report.extra["num_clusters"], 2
        )
        sharded = _run(r, s, 2.0, workers=2, shard_strategy=contiguous)
        _assert_identical(serial, sharded)
        assert _backend_counter_values(sharded[1]) == _backend_counter_values(serial[1])


class TestBackendObservability:
    """The backend is visible in spans and counters."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_megabatch_span_carries_backend_attr(self, dtw_pair, backend, monkeypatch):
        r, s = dtw_pair
        _, rec = _reference(r, s, 0.6, backend, monkeypatch)
        spans = [sp for sp in rec.spans if sp.name == "execute.megabatch"]
        assert spans
        assert all(sp.attrs.get("kernel_backend") == backend for sp in spans)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dtw_invocation_counter_named_after_backend(
        self, dtw_pair, backend, monkeypatch
    ):
        r, s = dtw_pair
        _, rec = _reference(r, s, 0.6, backend, monkeypatch)
        counters = _backend_counters(rec)
        assert counters.get(f"kernel.backend.{backend}.dtw.invocations", 0) > 0
        # Only the running backend's counters exist.
        assert all(name.startswith(f"kernel.backend.{backend}.") for name in counters)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edit_invocation_counter_named_after_backend(
        self, text_pair, backend, monkeypatch
    ):
        r, s = text_pair
        _, rec = _reference(r, s, 2.0, backend, monkeypatch)
        counters = _backend_counters(rec)
        assert counters.get(f"kernel.backend.{backend}.edit.invocations", 0) > 0
