"""Edit (Levenshtein) distance with threshold-bounded banding.

The subsequence join on strings compares equal-length windows under edit
distance (Section 3).  For a join threshold ``k`` the DP only needs a band
of width ``2k + 1`` around the diagonal (Ukkonen), and whole comparisons can
be abandoned as soon as every band cell exceeds ``k`` — both standard and
essential, since window pairs are the CPU bottleneck for sequence joins.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.kernels.edit import edit_batch, encode_strings

__all__ = ["edit_distance", "EditDistance"]


def edit_distance(s: str, t: str, max_dist: float | None = None) -> float:
    """Levenshtein distance between ``s`` and ``t``.

    When ``max_dist`` is given, computation is banded and the function
    returns ``max_dist + 1`` as soon as the true distance provably exceeds
    ``max_dist`` (an "early abandon"); callers comparing against a join
    threshold never observe the difference.
    """
    if s == t:
        return 0.0
    n, m = len(s), len(t)
    if n == 0 or m == 0:
        true = float(max(n, m))
        if max_dist is not None and true > max_dist:
            return max_dist + 1.0
        return true
    if max_dist is not None and abs(n - m) > max_dist:
        return max_dist + 1.0

    band = int(max_dist) if max_dist is not None else max(n, m)
    big = n + m + 1  # effectively +inf for this DP
    prev = [big] * (m + 1)
    for j in range(0, min(m, band) + 1):
        prev[j] = j
    for i in range(1, n + 1):
        cur = [big] * (m + 1)
        j_lo = max(1, i - band)
        j_hi = min(m, i + band)
        if i <= band:
            cur[0] = i
        row_min = cur[0] if i <= band else big
        si = s[i - 1]
        for j in range(j_lo, j_hi + 1):
            cost = 0 if si == t[j - 1] else 1
            best = prev[j - 1] + cost
            if prev[j] + 1 < best:
                best = prev[j] + 1
            if cur[j - 1] + 1 < best:
                best = cur[j - 1] + 1
            cur[j] = best
            if best < row_min:
                row_min = best
        if max_dist is not None and row_min > max_dist:
            return max_dist + 1.0
        prev = cur
    result = float(prev[m])
    if max_dist is not None and result > max_dist:
        return max_dist + 1.0
    return result


class EditDistance:
    """Edit distance as a :class:`~repro.distance.base.JoinDistance`.

    ``window_length`` is only used to scale the CPU comparison weight —
    a banded DP touches about ``window_length * (2k + 3)`` cells, which we
    approximate with the band for the distances this measure will see.
    """

    def __init__(self, window_length: int, band: int | None = None) -> None:
        if window_length <= 0:
            raise ValueError(f"window_length must be positive, got {window_length}")
        self.window_length = window_length
        self.band = band

    @property
    def comparison_weight(self) -> float:
        band = self.band if self.band is not None else self.window_length
        return float(self.window_length * (2 * band + 3))

    def distance(self, a: str, b: str) -> float:
        return edit_distance(a, b, max_dist=self.band)

    def pairs_within(
        self,
        left: Sequence[str],
        right: Sequence[str],
        epsilon: float,
    ) -> List[Tuple[int, int]]:
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        limit = int(epsilon)
        if not left or not right:
            return []
        widths = {len(s) for s in left} | {len(t) for t in right}
        if len(widths) == 1:
            # Window joins: equal-length strings, one batched DP call over
            # the whole cross product with a shared abandon threshold.
            left_codes = encode_strings(list(left))
            right_codes = encode_strings(list(right))
            cand_i, cand_j = np.divmod(
                np.arange(len(left) * len(right)), len(right)
            )
            dists = edit_batch(left_codes[cand_i], right_codes[cand_j], limit)
            keep = dists <= epsilon
            return list(zip(cand_i[keep].tolist(), cand_j[keep].tolist()))
        pairs: List[Tuple[int, int]] = []
        for i, s in enumerate(left):
            for j, t in enumerate(right):
                if edit_distance(s, t, max_dist=limit) <= epsilon:
                    pairs.append((i, j))
        return pairs

    def __repr__(self) -> str:
        return f"EditDistance(window_length={self.window_length}, band={self.band})"
