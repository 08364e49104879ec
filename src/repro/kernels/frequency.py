"""Exact small-integer frequency-distance filter.

A window's frequency vector holds integer symbol counts that sum to the
window length ``w``.  For two such vectors the positive and negative
parts of their difference are equal, so the MRS frequency distance is
half the L1 distance, and since L1 is an integer

    FD(u, v) <= epsilon   <=>   L1(u, v) <= floor(2 * epsilon).

The kernel therefore works on counts cast once to the smallest integer
type that holds ``2w`` and accumulates ``|a_k - b_k|`` one letter at a
time into a ``(rows, chunk)`` accumulator.  Its decisions are
bit-identical to the float64 ``max(positive, negative) <= epsilon``
form (:func:`~repro.distance.frequency.frequency_distance`), without the
``(rows, cols, alphabet)`` float temporary.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["fd_count_dtype", "fd_l1_limit", "letter_major_counts", "fd_within"]

# Accumulator and scratch cells per column chunk: two int16 buffers of
# this size stay inside a typical L2 cache, and peak temporary bytes do
# not grow with the panel width.
_FD_CELL_BUDGET = 1 << 17


def fd_count_dtype(window_length: int) -> type:
    """Smallest integer type holding an L1 distance of up to ``2w``."""
    return np.int16 if 2 * window_length < 2**15 else np.int32


def fd_l1_limit(epsilon: float, window_length: int) -> int:
    """The L1 bound equivalent to ``FD <= epsilon``, clamped to ``[-1, 2w]``.

    No L1 distance exceeds ``2w``, so the upper clamp changes no
    decision and keeps the limit inside the count type.
    """
    return max(-1, math.floor(min(2.0 * epsilon, 2 * window_length)))


def letter_major_counts(features: np.ndarray, window_length: int) -> np.ndarray:
    """``(windows, alphabet)`` counts as a contiguous ``(alphabet, windows)`` array."""
    return np.ascontiguousarray(features.T, dtype=fd_count_dtype(window_length))


def fd_within(
    left: np.ndarray,
    right: np.ndarray,
    limit: int,
    cell_budget: int = _FD_CELL_BUDGET,
) -> np.ndarray:
    """Boolean ``(rows, cols)`` matrix of ``L1(left[:, i], right[:, j]) <= limit``.

    ``left`` is ``(alphabet, rows)`` and ``right`` ``(alphabet, cols)``,
    letter-major integer counts of one type (:func:`letter_major_counts`);
    ``limit`` comes from :func:`fd_l1_limit`.
    """
    alpha, rows = left.shape
    width = right.shape[1]
    out = np.empty((rows, width), dtype=bool)
    if rows == 0 or width == 0:
        return out
    chunk = max(1, cell_budget // rows)
    acc = np.empty((rows, min(chunk, width)), dtype=left.dtype)
    tmp = np.empty_like(acc)
    columns = [left[k][:, None] for k in range(alpha)]
    for lo in range(0, width, chunk):
        hi = min(lo + chunk, width)
        a = acc[:, : hi - lo]
        t = tmp[:, : hi - lo]
        np.subtract(columns[0], right[0, lo:hi], out=a)
        np.abs(a, out=a)
        for k in range(1, alpha):
            np.subtract(columns[k], right[k, lo:hi], out=t)
            np.abs(t, out=t)
            a += t
        np.less_equal(a, limit, out=out[:, lo:hi])
    return out
