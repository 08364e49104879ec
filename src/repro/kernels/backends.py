"""Pluggable kernel backends for the batched DP refinement kernels.

The refinement hot path — banded DTW and banded edit distance over
candidate pair blocks, plus the LB_Keogh / envelope / Gram panel
filters — is routed through a *backend* object so the execution
substrate is a configuration choice rather than a rewrite.  Two
backends ship:

``numpy``
    The frozen batch-front reference kernels (``repro.kernels.dtw`` /
    ``repro.kernels.edit``).  This is the bit-identity oracle every
    other backend is tested against.
``wavefront``
    Anti-diagonal sweeps (``repro.kernels.wavefront``) that vectorise
    across batch × diagonal — same per-cell arithmetic in the same
    order, so bit-identical results, counters, and early-abandon
    decisions, with Python-level loop count O(w + band) instead of
    O(w · band).  The default.

Selection precedence is ``env < kwarg < CLI``: the
``REPRO_KERNEL_BACKEND`` environment variable supplies the default,
``join(..., kernel_backend=...)`` overrides it, and the CLI flag
``--kernel-backend`` simply feeds that kwarg.  Unknown or unavailable
names raise :class:`repro.errors.ConfigError` eagerly, listing the
registered backends.

A new substrate (e.g. CuPy) plugs in by subclassing
:class:`KernelBackend`, overriding the two chunk kernels (and
optionally the panel hooks), and calling :func:`register_backend` —
nothing upstream changes.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.kernels import dtw as _dtw_mod
from repro.kernels import edit as _edit_mod
from repro.kernels import minkowski as _minkowski_mod
from repro.kernels.wavefront import dtw_chunk_wavefront, edit_chunk_wavefront

__all__ = [
    "KernelBackend",
    "NumpyKernelBackend",
    "WavefrontKernelBackend",
    "DEFAULT_KERNEL_BACKEND",
    "KERNEL_BACKEND_ENV",
    "register_backend",
    "registered_backends",
    "get_backend",
    "resolve_backend",
]

KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"
DEFAULT_KERNEL_BACKEND = "wavefront"

# Backends that are known but not bundled; the ConfigError message
# tells the user how to get them.
_OPTIONAL_HINTS = {
    "cupy": "a CuPy backend is not bundled; see docs/architecture.md for the recipe",
}


class KernelBackend:
    """One execution substrate for the refinement DP chunk kernels.

    Subclasses must implement the two chunk kernels.  The panel hooks
    (envelopes, LB_Keogh, Gram filter) default to the shared numpy
    implementations — they are already single fused array operations,
    and reusing them keeps the candidate *sets* (and therefore every
    counter) trivially identical across backends; a GPU backend would
    override them to keep data device-resident.
    """

    name = "abstract"

    def dtw_chunk(
        self, a: np.ndarray, b: np.ndarray, band: int, max_dist: Optional[float]
    ) -> Tuple[np.ndarray, int]:
        """Banded DTW of one aligned chunk -> (distances, abandoned)."""
        raise NotImplementedError

    def edit_chunk(
        self, a: np.ndarray, b: np.ndarray, max_dist: int
    ) -> Tuple[np.ndarray, int]:
        """Banded edit distance of one aligned chunk -> (distances, abandoned)."""
        raise NotImplementedError

    # --- panel hooks (shared numpy implementations by default) ---

    def batch_envelopes(
        self, windows: np.ndarray, band: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return _dtw_mod.batch_envelopes(windows, band)

    def lb_keogh_panel(
        self, left_rows: np.ndarray, lowers: np.ndarray, uppers: np.ndarray
    ) -> np.ndarray:
        return _dtw_mod.lb_keogh_panel(left_rows, lowers, uppers)

    def euclidean_gram_panel(
        self,
        left_rows: np.ndarray,
        right_panel: np.ndarray,
        left_sq: np.ndarray,
        right_sq: np.ndarray,
        epsilon: float,
    ) -> np.ndarray:
        return _minkowski_mod.euclidean_gram_panel(
            left_rows, right_panel, left_sq, right_sq, epsilon
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name!r}>"


class NumpyKernelBackend(KernelBackend):
    """The frozen batch-front reference kernels — the bit-identity oracle."""

    name = "numpy"

    def dtw_chunk(self, a, b, band, max_dist):
        return _dtw_mod._dtw_chunk(a, b, band, max_dist)

    def edit_chunk(self, a, b, max_dist):
        return _edit_mod._edit_chunk(a, b, max_dist)


class WavefrontKernelBackend(KernelBackend):
    """Anti-diagonal sweeps: O(w + band) Python iterations per chunk."""

    name = "wavefront"

    def dtw_chunk(self, a, b, band, max_dist):
        return dtw_chunk_wavefront(a, b, band, max_dist)

    def edit_chunk(self, a, b, max_dist):
        return edit_chunk_wavefront(a, b, max_dist)


_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend, *, overwrite: bool = False) -> KernelBackend:
    """Add ``backend`` to the registry under ``backend.name``."""
    if not overwrite and backend.name in _REGISTRY:
        raise ConfigError(f"kernel backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def registered_backends() -> Tuple[str, ...]:
    """Names of every registered backend, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name; unknown names raise :class:`ConfigError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        detail = ""
        if name in _OPTIONAL_HINTS:
            detail = f" ({_OPTIONAL_HINTS[name]})"
        raise ConfigError(
            f"unknown kernel backend {name!r}{detail}; registered backends: "
            + ", ".join(sorted(_REGISTRY))
        ) from None


def resolve_backend(
    choice: Union[None, str, KernelBackend] = None,
) -> KernelBackend:
    """Resolve a backend choice eagerly (precedence: env < caller).

    ``None`` falls back to the ``REPRO_KERNEL_BACKEND`` environment
    variable, then to :data:`DEFAULT_KERNEL_BACKEND`.  Strings are
    looked up in the registry; :class:`KernelBackend` instances pass
    through.  Unknown names raise :class:`ConfigError` immediately so a
    typo fails before any pages are read.
    """
    if isinstance(choice, KernelBackend):
        return choice
    if choice is None:
        choice = os.environ.get(KERNEL_BACKEND_ENV) or DEFAULT_KERNEL_BACKEND
    return get_backend(str(choice))


register_backend(NumpyKernelBackend())
register_backend(WavefrontKernelBackend())
