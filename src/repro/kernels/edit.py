"""Batched banded edit-distance kernel over byte-encoded window pairs.

The scalar reference ``repro.distance.edit.edit_distance`` runs a banded
Ukkonen DP per string pair — pure Python, and the CPU bottleneck of
sequence joins.  ``edit_batch`` runs the identical DP once for a whole
candidate block: states are ``(pairs, w+1)`` int32 arrays, each band
cell update is one vectorised minimum over every alive pair, and pairs
whose band row-minimum exceeds the shared threshold retire immediately
with the ``max_dist + 1`` sentinel.  Integer arithmetic makes bit-
identity with the scalar DP unconditional.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kernels.backends import resolve_backend
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["edit_batch", "encode_strings"]

_CHUNK_PAIRS = 4096


def encode_strings(strings: Sequence[str]) -> np.ndarray:
    """Equal-length strings as a ``(n, w)`` uint8 code matrix.

    Uses latin-1 so every code point below 256 maps to one byte — the
    same convention as the text joiner's strided window view.
    """
    if not strings:
        return np.empty((0, 0), dtype=np.uint8)
    w = len(strings[0])
    if any(len(s) != w for s in strings):
        raise ValueError("encode_strings expects equal-length strings")
    flat = "".join(strings).encode("latin-1")
    return np.frombuffer(flat, dtype=np.uint8).reshape(len(strings), w)


def edit_batch(
    a: np.ndarray,
    b: np.ndarray,
    max_dist: int,
    recorder: Recorder = NULL_RECORDER,
    backend=None,
) -> np.ndarray:
    """Banded edit distance of ``K`` aligned equal-length string pairs.

    ``a`` and ``b`` are ``(K, w)`` uint8 code matrices (see
    :func:`encode_strings`).  Returns a ``(K,)`` float64 array equal to
    calling :func:`repro.distance.edit.edit_distance` per pair with
    ``max_dist`` as the threshold, sentinel included.  ``backend`` is
    the :class:`repro.kernels.backends.KernelBackend` whose
    ``edit_chunk`` runs each chunk (``None``: the default).
    """
    kb = resolve_backend(backend)
    a_arr = np.atleast_2d(np.asarray(a))
    b_arr = np.atleast_2d(np.asarray(b))
    if a_arr.shape != b_arr.shape:
        raise ValueError(
            f"edit_batch expects aligned equal-shape pair blocks, got "
            f"{a_arr.shape} vs {b_arr.shape}"
        )
    if max_dist < 0:
        raise ValueError(f"max_dist must be non-negative, got {max_dist}")
    if a_arr.shape[0] == 0:
        return np.empty(0)
    out = np.empty(a_arr.shape[0])
    abandoned = 0
    for start in range(0, a_arr.shape[0], _CHUNK_PAIRS):
        stop = start + _CHUNK_PAIRS
        out[start:stop], retired = kb.edit_chunk(
            a_arr[start:stop], b_arr[start:stop], max_dist
        )
        abandoned += retired
    if recorder.enabled:
        recorder.count("kernel.edit.invocations")
        recorder.count("kernel.edit.pairs", int(a_arr.shape[0]))
        recorder.count("kernel.edit.abandoned", abandoned)
        recorder.count(f"kernel.backend.{kb.name}.edit.invocations")
    return out


def _edit_chunk(a: np.ndarray, b: np.ndarray, max_dist: int) -> Tuple[np.ndarray, int]:
    """One chunk's distances plus how many pairs were retired early."""
    k, w = a.shape
    band = int(max_dist)
    big = np.int32(2 * w + 1)  # effectively +inf for this DP
    sentinel = float(max_dist) + 1.0
    out = np.empty(k)
    abandoned = 0
    if w == 0:
        out[:] = 0.0
        return out, abandoned
    alive = np.arange(k)
    prev = np.full((k, w + 1), big, dtype=np.int32)
    prev[:, : min(w, band) + 1] = np.arange(min(w, band) + 1, dtype=np.int32)
    for i in range(1, w + 1):
        cur = np.full((alive.shape[0], w + 1), big, dtype=np.int32)
        j_lo = max(1, i - band)
        j_hi = min(w, i + band)
        if i <= band:
            cur[:, 0] = i
            row_min = np.full(alive.shape[0], np.int32(i))
        else:
            row_min = np.full(alive.shape[0], big)
        ai = a[:, i - 1]
        for j in range(j_lo, j_hi + 1):
            cost = (ai != b[:, j - 1]).astype(np.int32)
            best = np.minimum(
                np.minimum(prev[:, j - 1] + cost, prev[:, j] + 1), cur[:, j - 1] + 1
            )
            cur[:, j] = best
            np.minimum(row_min, best, out=row_min)
        dead = row_min > max_dist
        if dead.any():
            dead_ids = alive[dead]
            out[dead_ids] = sentinel
            abandoned += int(dead_ids.size)
            keep = ~dead
            alive = alive[keep]
            if alive.shape[0] == 0:
                return out, abandoned
            cur = cur[keep]
            a = a[keep]
            b = b[keep]
        prev = cur
    result = prev[:, w].astype(np.float64)
    result[result > max_dist] = sentinel
    out[alive] = result
    return out, abandoned
