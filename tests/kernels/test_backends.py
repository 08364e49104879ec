"""Kernel-backend registry: selection precedence and eager validation.

The registry is the single switch point for the refinement kernel
substrate: ``REPRO_KERNEL_BACKEND`` < ``join(kernel_backend=)`` <
``--kernel-backend``.  Unknown names must fail with
:class:`repro.errors.ConfigError` *before* any pages are read, and the
message must list what IS registered so the typo is a one-look fix.
"""

import numpy as np
import pytest

from repro import ConfigError, IndexedDataset, join
from repro.kernels.backends import (
    DEFAULT_KERNEL_BACKEND,
    KERNEL_BACKEND_ENV,
    KernelBackend,
    NumpyKernelBackend,
    WavefrontKernelBackend,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = registered_backends()
        assert "numpy" in names
        assert "wavefront" in names

    def test_get_backend_returns_named_singleton(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("numpy").name == "numpy"
        assert isinstance(get_backend("numpy"), NumpyKernelBackend)
        assert isinstance(get_backend("wavefront"), WavefrontKernelBackend)

    def test_unknown_backend_raises_config_error_listing_registered(self):
        with pytest.raises(ConfigError) as excinfo:
            get_backend("fortran")
        message = str(excinfo.value)
        assert "fortran" in message
        assert "numpy" in message
        assert "wavefront" in message

    def test_cupy_recipe_hint(self):
        with pytest.raises(ConfigError) as excinfo:
            get_backend("cupy")
        assert "recipe" in str(excinfo.value)

    def test_duplicate_registration_requires_overwrite(self):
        with pytest.raises(ConfigError):
            register_backend(NumpyKernelBackend())
        # Overwrite restores the original singleton to keep the
        # registry exactly as the other tests expect.
        original = get_backend("numpy")
        register_backend(original, overwrite=True)
        assert get_backend("numpy") is original


class TestResolvePrecedence:
    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert resolve_backend(None).name == DEFAULT_KERNEL_BACKEND

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_kwarg_overrides_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numpy")
        assert resolve_backend("wavefront").name == "wavefront"

    def test_empty_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "")
        assert resolve_backend(None).name == DEFAULT_KERNEL_BACKEND

    def test_instance_passthrough(self):
        backend = get_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "no-such-backend")
        with pytest.raises(ConfigError):
            resolve_backend(None)


class TestJoinValidation:
    """join() must reject a bad backend eagerly, before touching pages."""

    @pytest.fixture(scope="class")
    def datasets(self):
        rng = np.random.default_rng(3)
        r = IndexedDataset.from_points(rng.random((60, 2)), page_capacity=8)
        s = IndexedDataset.from_points(rng.random((40, 2)), page_capacity=8)
        return r, s

    def test_unknown_kernel_backend_fails_fast(self, datasets):
        r, s = datasets
        with pytest.raises(ConfigError, match="registered backends"):
            join(r, s, 0.05, buffer_pages=10, kernel_backend="typo")

    def test_named_backends_give_identical_results(self, datasets):
        r, s = datasets
        by_name = {
            name: join(r, s, 0.05, buffer_pages=10, kernel_backend=name)
            for name in ("numpy", "wavefront")
        }
        assert by_name["numpy"].pairs == by_name["wavefront"].pairs

    def test_env_var_selection(self, datasets, monkeypatch):
        r, s = datasets
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "nonexistent")
        with pytest.raises(ConfigError):
            join(r, s, 0.05, buffer_pages=10)


class TestPanelHooks:
    """Default panel hooks delegate to the shared numpy implementations,
    so every backend filters identical candidate sets."""

    def test_custom_backend_inherits_panels(self):
        class Stub(KernelBackend):
            name = "stub-test-only"

        rng = np.random.default_rng(5)
        windows = rng.normal(size=(6, 12))
        stub, reference = Stub(), get_backend("numpy")
        lo_s, hi_s = stub.batch_envelopes(windows, 2)
        lo_r, hi_r = reference.batch_envelopes(windows, 2)
        assert np.array_equal(lo_s, lo_r)
        assert np.array_equal(hi_s, hi_r)
