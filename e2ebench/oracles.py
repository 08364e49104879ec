"""Independent answers to the joins the benchmark runs.

Neither oracle shares code with the join engine: spatial pairs come from
a SciPy k-d tree, genome pairs from a hash join on window halves.  Both
return pairs as sorted ``int64`` keys ``(a << 32) | b`` so that results
of any order compare with one array comparison.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree


def pair_keys(pairs) -> np.ndarray:
    """Sorted ``(a << 32) | b`` keys of an ``(n, 2)`` id-pair collection."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr.max() >= 1 << 32):
        raise ValueError("pair ids must lie in [0, 2**32)")
    return np.sort((arr[:, 0] << 32) | arr[:, 1])


def unordered_keys(pairs) -> np.ndarray:
    """Keys of a self join's pairs, each written smaller id first."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return pair_keys(np.sort(arr, axis=1))


def digest(keys: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(keys).tobytes(), digest_size=16).hexdigest()


def points_within(r: np.ndarray, s: np.ndarray, epsilon: float) -> np.ndarray:
    """Keys of every ``(i, j)`` with ``||r[i] - s[j]||_2 <= epsilon``."""
    found = cKDTree(r).sparse_distance_matrix(
        cKDTree(s), epsilon, output_type="ndarray"
    )
    return pair_keys(np.stack([found["i"], found["j"]], axis=1))


def windows_within_one_edit(text: str, window_length: int) -> np.ndarray:
    """Keys of window pairs ``a < b`` of ``text`` at edit distance <= 1.

    Two windows of equal length are one edit apart exactly when they are
    one substitution apart: an insertion has to be paired with a deletion
    to keep the length, which costs two.  So edit distance <= 1 equals
    Hamming distance <= 1, and a single mismatch leaves one of the two
    window halves identical.  Bucketing windows by each half and checking
    the Hamming distance inside buckets therefore finds every pair.
    """
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    if codes.shape[0] < window_length:
        return np.empty(0, dtype=np.int64)
    windows = sliding_window_view(codes, window_length)
    half = window_length // 2
    left_parts, right_parts = [], []
    for lo, hi in ((0, half), (half, window_length)):
        _, group = np.unique(windows[:, lo:hi], axis=0, return_inverse=True)
        group = group.ravel()
        order = np.argsort(group, kind="stable")
        sorted_group = group[order]
        starts = np.flatnonzero(np.r_[True, sorted_group[1:] != sorted_group[:-1]])
        sizes = np.diff(np.r_[starts, sorted_group.shape[0]])
        for start, size in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
            members = order[start:start + size]
            a, b = np.triu_indices(size, k=1)
            left_parts.append(members[a])
            right_parts.append(members[b])
    if not left_parts:
        return np.empty(0, dtype=np.int64)
    a = np.concatenate(left_parts)
    b = np.concatenate(right_parts)
    mismatches = np.count_nonzero(windows[a] != windows[b], axis=1)
    keep = mismatches <= 1
    return np.unique(unordered_keys(np.stack([a[keep], b[keep]], axis=1)))
