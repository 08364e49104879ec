"""Integer FD kernel vs the scalar frequency distance — decision for decision.

``fd_within`` decides ``FD <= epsilon`` as ``L1 <= floor(2 epsilon)`` on
integer counts.  For count vectors summing to one window length that is
exact, so every boolean must equal ``frequency_distance(u, v) <= eps``.
The strategies cover alphabets of 1-6 letters, epsilons on and between
the half-integer steps, huge epsilons (the clamped limit), column chunks
of one cell, and window lengths past the int16 range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.frequency import frequency_distance
from repro.kernels.frequency import (
    fd_count_dtype,
    fd_l1_limit,
    fd_within,
    letter_major_counts,
)


@st.composite
def count_vectors(draw, n, alpha, w):
    rows = []
    for _ in range(n):
        cuts = sorted(
            draw(st.lists(st.integers(0, w), min_size=alpha - 1, max_size=alpha - 1))
        )
        rows.append(np.diff([0, *cuts, w]))
    return np.asarray(rows, dtype=np.float64).reshape(n, alpha)


@st.composite
def fd_cases(draw):
    alpha = draw(st.integers(1, 6))
    w = draw(st.one_of(st.integers(1, 12), st.integers(16384, 40000)))
    left = draw(count_vectors(draw(st.integers(1, 6)), alpha, w))
    right = draw(count_vectors(draw(st.integers(1, 9)), alpha, w))
    # Near-copies of left rows put many pairs right at the threshold.
    for j in range(min(len(left), len(right))):
        if draw(st.booleans()):
            right[j] = left[j]
            src, dst = draw(st.integers(0, alpha - 1)), draw(st.integers(0, alpha - 1))
            moved = min(draw(st.integers(0, 2)), right[j, src])
            right[j, src] -= moved
            right[j, dst] += moved
    epsilon = draw(st.sampled_from([0, 0.5, 1, 1.5, 2, w, 10 * w]))
    budget = draw(st.sampled_from([1, 5, 1 << 17]))
    return left, right, w, epsilon, budget


@settings(max_examples=300, deadline=None)
@given(fd_cases())
def test_matches_scalar_frequency_distance(case):
    left, right, w, epsilon, budget = case
    got = fd_within(
        letter_major_counts(left, w),
        letter_major_counts(right, w),
        fd_l1_limit(epsilon, w),
        cell_budget=budget,
    )
    expected = np.array(
        [[frequency_distance(u, v) <= epsilon for v in right] for u in left]
    )
    assert got.dtype == bool
    assert np.array_equal(got, expected)


def test_int32_path_past_int16_range():
    w = 20000
    assert fd_count_dtype(w) is np.int32
    left = np.array([[w, 0, 0, 0], [w - 1, 1, 0, 0]], dtype=np.float64)
    right = np.array([[0, w, 0, 0], [w, 0, 0, 0], [0, 0, w // 2, w // 2]], dtype=np.float64)
    counts_l = letter_major_counts(left, w)
    counts_r = letter_major_counts(right, w)
    assert counts_l.dtype == np.int32
    for epsilon in (0, 1, w - 1, w):
        expected = np.array(
            [[frequency_distance(u, v) <= epsilon for v in right] for u in left]
        )
        got = fd_within(counts_l, counts_r, fd_l1_limit(epsilon, w))
        assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "w, dtype", [(1, np.int16), (16383, np.int16), (16384, np.int32)]
)
def test_count_dtype_holds_twice_the_window(w, dtype):
    assert fd_count_dtype(w) is dtype
    assert np.iinfo(dtype).max >= 2 * w


@pytest.mark.parametrize(
    "epsilon, limit",
    [(0, 0), (0.49, 0), (0.5, 1), (1.5, 3), (1e300, 24), (float("inf"), 24),
     (-0.3, -1)],
)
def test_l1_limit_floors_and_clamps(epsilon, limit):
    assert fd_l1_limit(epsilon, 12) == limit


def test_empty_panels():
    left = letter_major_counts(np.zeros((0, 4)), 8)
    right = letter_major_counts(np.full((3, 4), 2.0), 8)
    assert fd_within(left, right, 2).shape == (0, 3)
    assert fd_within(right, left, 2).shape == (3, 0)
