"""Batched kernels must be bit-identical to their scalar references.

The kernel layer's contract (ISSUE 1 tentpole) is that batching changes
*when* numbers are computed, never *which* numbers: ``dtw_batch`` /
``edit_batch`` return exactly what per-pair ``dtw_distance`` /
``edit_distance`` calls return (early-abandon sentinels included), and
``minkowski_pairs`` accepts exactly the pairs the difference-tensor
reference accepts.  The DP suites run twice: on the production
:class:`KernelBackend` (wavefront sweeps) and on a test-local backend
that runs the row kernels, the oracle the wavefront is pinned to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.dtw as kdtw
import repro.kernels.edit as kedit
from repro.distance.dtw import DTWDistance, dtw_distance, envelope
from repro.distance.edit import EditDistance, edit_distance
from repro.distance.vector import MinkowskiDistance
from repro.kernels import (
    batch_envelopes,
    dtw_batch,
    edit_batch,
    encode_strings,
    minkowski_pairs,
    minkowski_pairwise,
)
from repro.kernels.backends import KernelBackend


class RowKernelBackend(KernelBackend):
    """The row-by-row DP kernels behind the backend hooks."""

    name = "numpy"

    def dtw_chunk(self, a, b, band, max_dist):
        return kdtw._dtw_chunk(a, b, band, max_dist)

    def edit_chunk(self, a, b, max_dist):
        return kedit._edit_chunk(a, b, max_dist)


BACKENDS = {"numpy": RowKernelBackend(), "wavefront": KernelBackend()}

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def window_pair_blocks(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    w = draw(st.integers(min_value=1, max_value=12))
    flat = draw(
        st.lists(finite, min_size=2 * k * w, max_size=2 * k * w)
    )
    block = np.asarray(flat).reshape(2, k, w)
    return block[0], block[1]


@st.composite
def dna_blocks(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    w = draw(st.integers(min_value=1, max_value=16))
    mats = draw(
        st.lists(
            st.lists(st.sampled_from("ACGT"), min_size=w, max_size=w),
            min_size=2 * k,
            max_size=2 * k,
        )
    )
    strings = ["".join(row) for row in mats]
    return strings[:k], strings[k:]


class TestDtwBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(window_pair_blocks(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_matches_scalar_bitwise(self, backend, block, band):
        a, b = block
        batched = dtw_batch(a, b, band, backend=BACKENDS[backend])
        scalar = np.array(
            [dtw_distance(a[k], b[k], band) for k in range(a.shape[0])]
        )
        assert np.array_equal(batched, scalar)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        window_pair_blocks(),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0, max_value=30, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_early_abandon_matches_scalar_bitwise(self, backend, block, band, max_dist):
        a, b = block
        batched = dtw_batch(a, b, band, max_dist=max_dist, backend=BACKENDS[backend])
        scalar = np.array(
            [dtw_distance(a[k], b[k], band, max_dist=max_dist) for k in range(a.shape[0])]
        )
        assert np.array_equal(batched, scalar)

    def test_threshold_exactly_at_distance(self):
        """The abandon boundary: max_dist equal to the true distance."""
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[3.0, 0.0, 0.0]])
        true = dtw_distance(a[0], b[0], band=1)
        assert dtw_batch(a, b, 1, max_dist=true)[0] == true
        below = np.nextafter(true, 0.0)
        assert dtw_batch(a, b, 1, max_dist=below)[0] == below + 1.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chunking_boundary(self, rng, monkeypatch, backend):
        monkeypatch.setattr(kdtw, "_CHUNK_PAIRS", 3)
        a = rng.normal(size=(10, 6))
        b = rng.normal(size=(10, 6))
        chunked = dtw_batch(a, b, 2, max_dist=2.0, backend=BACKENDS[backend])
        scalar = np.array([dtw_distance(a[k], b[k], 2, max_dist=2.0) for k in range(10)])
        assert np.array_equal(chunked, scalar)

    def test_validation(self):
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((1, 3)), np.zeros((1, 4)), band=1)
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((1, 3)), np.zeros((1, 3)), band=-1)
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((1, 0)), np.zeros((1, 0)), band=1)
        assert dtw_batch(np.zeros((0, 3)), np.zeros((0, 3)), band=1).shape == (0,)

    @given(window_pair_blocks(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_batch_envelopes_match_per_row(self, block, band):
        windows, _ = block
        lowers, uppers = batch_envelopes(windows, band)
        for k in range(windows.shape[0]):
            lo, hi = envelope(windows[k], band)
            assert np.array_equal(lowers[k], lo)
            assert np.array_equal(uppers[k], hi)


class TestEditBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(dna_blocks(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_bitwise(self, backend, block, limit):
        left, right = block
        batched = edit_batch(
            encode_strings(left), encode_strings(right), limit, backend=BACKENDS[backend]
        )
        scalar = np.array(
            [edit_distance(s, t, max_dist=limit) for s, t in zip(left, right)]
        )
        assert np.array_equal(batched, scalar)

    def test_threshold_exactly_at_distance(self):
        a = encode_strings(["AAAA"])
        b = encode_strings(["AATT"])
        assert edit_batch(a, b, 2)[0] == 2.0
        assert edit_batch(a, b, 1)[0] == 2.0  # sentinel: max_dist + 1

    def test_zero_threshold(self):
        codes = encode_strings(["ACGT", "ACGT"])
        other = encode_strings(["ACGT", "ACGA"])
        assert edit_batch(codes, other, 0).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chunking_boundary(self, monkeypatch, backend):
        monkeypatch.setattr(kedit, "_CHUNK_PAIRS", 2)
        left = ["ACGTAC", "TTTTTT", "ACGTTT", "GGGGGG", "ACGTAA"]
        right = ["ACGTAC", "TTTTAA", "TTTTTT", "GGGGCC", "AAGTAA"]
        batched = edit_batch(
            encode_strings(left), encode_strings(right), 3, backend=BACKENDS[backend]
        )
        scalar = np.array([edit_distance(s, t, max_dist=3) for s, t in zip(left, right)])
        assert np.array_equal(batched, scalar)

    def test_validation(self):
        with pytest.raises(ValueError):
            edit_batch(np.zeros((1, 3), dtype=np.uint8), np.zeros((1, 4), dtype=np.uint8), 1)
        with pytest.raises(ValueError):
            edit_batch(np.zeros((1, 3), dtype=np.uint8), np.zeros((1, 3), dtype=np.uint8), -1)
        with pytest.raises(ValueError):
            encode_strings(["AB", "ABC"])


class TestMinkowskiKernel:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, float("inf")])
    def test_pairs_match_brute_force(self, p, rng):
        left = rng.random((40, 3))
        right = rng.random((30, 3))
        d = MinkowskiDistance(p)
        for eps in (0.0, 0.2, 0.5):
            expected = {
                (i, j)
                for i in range(40)
                for j in range(30)
                if d.distance(left[i], right[j]) <= eps
            }
            assert set(minkowski_pairs(left, right, eps, p)) == expected

    def test_gram_filter_keeps_identical_points_at_zero_epsilon(self, rng):
        pts = rng.normal(size=(50, 8)) * 1e3
        pairs = set(minkowski_pairs(pts, pts.copy(), 0.0, 2.0))
        assert pairs == {(i, i) for i in range(50)}

    @given(
        st.lists(finite, min_size=4, max_size=40),
        st.floats(min_value=0, max_value=20, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_euclidean_pairs_property(self, flat, eps):
        n = len(flat) // 2
        pts = np.asarray(flat[: 2 * n]).reshape(n, 2)
        d = MinkowskiDistance(2.0)
        expected = {
            (i, j)
            for i in range(n)
            for j in range(n)
            if d.distance(pts[i], pts[j]) <= eps
        }
        assert set(minkowski_pairs(pts, pts, eps, 2.0)) == expected

    @pytest.mark.parametrize("p", [1.0, 2.0, float("inf")])
    def test_pairwise_matches_scalar(self, p, rng):
        left = rng.normal(size=(9, 4))
        right = rng.normal(size=(7, 4))
        matrix = minkowski_pairwise(left, right, p)
        d = MinkowskiDistance(p)
        for i in range(9):
            for j in range(7):
                assert matrix[i, j] == pytest.approx(d.distance(left[i], right[j]))

    def test_pairwise_gram_never_materialises_tensor(self, rng):
        # Shape check only: a (4000, 3000) matrix is fine, the
        # (4000, 3000, d) tensor would not be.  Runtime being sane is
        # the real assertion; tracemalloc-level checks live in the bench.
        left = rng.normal(size=(4000, 8))
        right = rng.normal(size=(3000, 8))
        matrix = minkowski_pairwise(left, right, 2.0)
        assert matrix.shape == (4000, 3000)
        assert np.all(np.isfinite(matrix))


class TestAdaptersRouteThroughKernels:
    """The distance classes' pairs_within must equal scalar brute force."""

    def test_dtw_adapter(self, rng):
        d = DTWDistance(band=2)
        left = rng.normal(size=(12, 8))
        right = rng.normal(size=(9, 8))
        for eps in (0.5, 1.5, 3.0):
            expected = {
                (i, j)
                for i in range(12)
                for j in range(9)
                if dtw_distance(left[i], right[j], 2) <= eps
            }
            assert set(d.pairs_within(left, right, eps)) == expected

    def test_edit_adapter_equal_lengths(self):
        d = EditDistance(window_length=6)
        left = ["ACGTAC", "TTTTTT", "ACGTTT"]
        right = ["ACGTAC", "TTTTAA", "CCCCCC", "ACGATT"]
        for eps in (0, 1, 2, 3):
            expected = {
                (i, j)
                for i, s in enumerate(left)
                for j, t in enumerate(right)
                if edit_distance(s, t, max_dist=eps) <= eps
            }
            assert set(d.pairs_within(left, right, eps)) == expected

    def test_edit_adapter_ragged_fallback(self):
        d = EditDistance(window_length=4)
        left = ["ACG", "ACGT"]
        right = ["ACGT", "AC"]
        pairs = set(d.pairs_within(left, right, 1))
        expected = {
            (i, j)
            for i, s in enumerate(left)
            for j, t in enumerate(right)
            if edit_distance(s, t, max_dist=1) <= 1
        }
        assert pairs == expected
