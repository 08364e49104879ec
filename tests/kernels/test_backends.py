"""The kernel backend seam: one default, substitutable per joiner.

Every kernel hook of the joiners' cascades runs through the backend
object the joiner was built with, so a subclass (another substrate, or a
timing wrapper) sees all of the refinement work.  Shard workers rebuild
joiners on the default backend, so a sharded run must refuse a joiner
built with a substituted one instead of silently dropping it.
"""

import numpy as np
import pytest

from repro import IndexedDataset, join
from repro.core.executor import execute_clusters_sharded
from repro.core.joiners import make_numeric_joiner, make_text_joiner
from repro.costmodel import DEFAULT_COST_MODEL
from repro.datasets import markov_dna
from repro.kernels import backends as backends_module
from repro.kernels.backends import KernelBackend, resolve_backend
from repro.kernels.dtw import _dtw_chunk
from repro.kernels.edit import _edit_chunk
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

HOOKS = {
    "dtw_chunk",
    "edit_chunk",
    "batch_envelopes",
    "lb_keogh_panel",
    "euclidean_gram_panel",
}


class RowKernelBackend(KernelBackend):
    """The row-by-row DP kernels behind the backend hooks."""

    name = "numpy"

    def dtw_chunk(self, a, b, band, max_dist):
        return _dtw_chunk(a, b, band, max_dist)

    def edit_chunk(self, a, b, max_dist):
        return _edit_chunk(a, b, max_dist)


class SpyBackend(KernelBackend):
    """Records which hooks ran, then defers to the default kernels."""

    name = "spy"

    def __init__(self):
        self.calls = set()

    def _record(self, hook, *args):
        self.calls.add(hook)
        return getattr(super(), hook)(*args)

    def dtw_chunk(self, *args):
        return self._record("dtw_chunk", *args)

    def edit_chunk(self, *args):
        return self._record("edit_chunk", *args)

    def batch_envelopes(self, *args):
        return self._record("batch_envelopes", *args)

    def lb_keogh_panel(self, *args):
        return self._record("lb_keogh_panel", *args)

    def euclidean_gram_panel(self, *args):
        return self._record("euclidean_gram_panel", *args)


def _all_entries(r, s):
    return [(row, col) for row in range(r.num_pages) for col in range(s.num_pages)]


@pytest.fixture(scope="module")
def datasets():
    rng = np.random.default_rng(3)
    r = IndexedDataset.from_points(rng.random((60, 2)), page_capacity=8)
    s = IndexedDataset.from_points(rng.random((40, 2)), page_capacity=8)
    return r, s


@pytest.fixture(scope="module")
def series():
    walk = np.cumsum(np.random.default_rng(4).normal(size=300))
    return IndexedDataset.from_time_series(
        walk, window_length=12, windows_per_page=24, dtw_band=2
    )


class TestResolvePrecedence:
    def test_default_when_nothing_set(self):
        backend = resolve_backend(None)
        assert type(backend) is KernelBackend
        assert resolve_backend() is backend

    def test_instance_passthrough(self):
        backend = RowKernelBackend()
        assert resolve_backend(backend) is backend


class TestJoinValidation:
    def test_unknown_kernel_backend_fails_fast(self, datasets):
        """Backends are objects: names are refused, and join() has no
        backend parameter at all."""
        r, s = datasets
        with pytest.raises(TypeError, match="KernelBackend"):
            make_numeric_joiner(
                r.paged, s.paged, r.distance, 0.05, DEFAULT_COST_MODEL, False,
                kernel_backend="numpy",
            )
        with pytest.raises(TypeError):
            join(r, s, 0.05, buffer_pages=10, kernel_backend="wavefront")

    def test_named_backends_give_identical_results(self, series, monkeypatch):
        default = join(series, series, 0.6, buffer_pages=10)
        monkeypatch.setattr(backends_module, "_DEFAULT", RowKernelBackend())
        rows = join(series, series, 0.6, buffer_pages=10)
        assert rows.pairs == default.pairs
        assert rows.num_pairs > 0


class TestPanelHooks:
    """Default panel hooks delegate to the shared numpy implementations,
    so every backend filters identical candidate sets."""

    def test_custom_backend_inherits_panels(self):
        class Stub(KernelBackend):
            name = "stub-test-only"

        rng = np.random.default_rng(5)
        windows = rng.normal(size=(6, 12))
        stub, reference = Stub(), RowKernelBackend()
        lo_s, hi_s = stub.batch_envelopes(windows, 2)
        lo_r, hi_r = reference.batch_envelopes(windows, 2)
        assert np.array_equal(lo_s, lo_r)
        assert np.array_equal(hi_s, hi_r)


class TestJoinersRouteEveryHook:
    def test_backend_passed_to_joiners_receives_every_hook(self, datasets, series):
        spy = SpyBackend()
        r, s = datasets
        vector = make_numeric_joiner(
            r.paged, s.paged, r.distance, 0.1, DEFAULT_COST_MODEL, False,
            kernel_backend=spy,
        )
        vector.join_cluster(_all_entries(r, s))
        dtw = make_numeric_joiner(
            series.paged, series.paged, series.distance, 0.6, DEFAULT_COST_MODEL,
            False, kernel_backend=spy,
        )
        dtw.join_cluster(_all_entries(series, series))
        text = IndexedDataset.from_string(
            markov_dna(600, seed=5), window_length=8, windows_per_page=24
        )
        edit = make_text_joiner(
            text.paged, text.paged, text.features, text.features, 2.0,
            DEFAULT_COST_MODEL, False, kernel_backend=spy,
        )
        edit.join_cluster(_all_entries(text, text))
        assert spy.calls == HOOKS

    def test_sharded_execution_rejects_substituted_backend(self, series, monkeypatch):
        joiner = make_numeric_joiner(
            series.paged, series.paged, series.distance, 0.6, DEFAULT_COST_MODEL,
            True, kernel_backend=RowKernelBackend(),
        )
        pool = BufferPool(SimulatedDisk(DEFAULT_COST_MODEL), 10)
        with pytest.raises(ValueError, match="default kernel backend"):
            execute_clusters_sharded(
                [], pool, series.paged, series.paged, joiner, workers=2
            )
        monkeypatch.setattr(backends_module, "_DEFAULT", RowKernelBackend())
        with pytest.raises(ValueError, match="default kernel backend"):
            join(series, series, 0.6, buffer_pages=10, workers=2)
