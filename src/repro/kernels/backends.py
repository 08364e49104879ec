"""The kernel backend: the one object the refinement hot path calls.

The refinement kernels — banded DTW and banded edit distance over
candidate pair blocks, plus the LB_Keogh / envelope / Gram panel
filters — are routed through a :class:`KernelBackend` so a joiner can be
handed a different execution substrate (or a timing wrapper) without
touching the cascades.  The backend runs the anti-diagonal sweeps of
:mod:`repro.kernels.wavefront`, which vectorise across batch × diagonal
and are bit-identical to the row kernels ``repro.kernels.dtw._dtw_chunk``
and ``repro.kernels.edit._edit_chunk`` (kept as the test oracle).

A new substrate (e.g. CuPy) subclasses :class:`KernelBackend`,
overrides the chunk kernels (and optionally the panel hooks), and is
passed to :func:`repro.core.joiners.make_numeric_joiner` /
:func:`~repro.core.joiners.make_text_joiner`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels import dtw as _dtw_mod
from repro.kernels import minkowski as _minkowski_mod
from repro.kernels.wavefront import dtw_chunk_wavefront, edit_chunk_wavefront

__all__ = ["KernelBackend", "resolve_backend"]


class KernelBackend:
    """One execution substrate for the refinement kernels.

    The chunk kernels run the wavefront sweeps.  The panel hooks
    (envelopes, LB_Keogh, Gram filter) are the shared numpy
    implementations — already single fused array operations; a GPU
    subclass would override them to keep data device-resident.
    ``name`` labels the ``kernel.backend.<name>.*`` invocation counters
    and the ``execute.megabatch`` span.
    """

    name = "wavefront"

    def dtw_chunk(
        self, a: np.ndarray, b: np.ndarray, band: int, max_dist: Optional[float]
    ) -> Tuple[np.ndarray, int]:
        """Banded DTW of one aligned chunk -> (distances, abandoned)."""
        return dtw_chunk_wavefront(a, b, band, max_dist)

    def edit_chunk(
        self, a: np.ndarray, b: np.ndarray, max_dist: int
    ) -> Tuple[np.ndarray, int]:
        """Banded edit distance of one aligned chunk -> (distances, abandoned)."""
        return edit_chunk_wavefront(a, b, max_dist)

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
        return f"<{type(self).__name__} {self.name!r}>"


_DEFAULT = KernelBackend()


def resolve_backend(backend: Optional[KernelBackend] = None) -> KernelBackend:
    """``backend`` itself, or the shared default :class:`KernelBackend`."""
    if backend is None:
        return _DEFAULT
    if not isinstance(backend, KernelBackend):
        raise TypeError(
            f"kernel backend must be a KernelBackend instance, got {backend!r}"
        )
    return backend
