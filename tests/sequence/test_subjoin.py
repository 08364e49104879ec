"""Unit tests for the subsequence-join operator."""

import numpy as np
import pytest

from repro.distance.edit import edit_distance
from repro.sequence.subjoin import subsequence_join


class TestTextSubsequenceJoin:
    def test_periodic_self_join_exact(self):
        result = subsequence_join(
            "ACGTACGTACGTACGT", None, window_length=4, epsilon=0,
            buffer_pages=4, windows_per_page=3,
        )
        # Period 4: offsets p, q with p ≡ q (mod 4), p < q all match.
        expected = {
            (p, q)
            for p in range(13)
            for q in range(p + 1, 13)
            if (q - p) % 4 == 0
        }
        assert set(result.offsets) == expected

    def test_cross_join_brute_force(self):
        from repro.datasets import markov_dna

        a = markov_dna(400, seed=1)
        b = markov_dna(300, seed=2)
        w, eps = 8, 1
        result = subsequence_join(a, b, window_length=w, epsilon=eps,
                                  buffer_pages=6, windows_per_page=16)
        expected = {
            (p, q)
            for p in range(len(a) - w + 1)
            for q in range(len(b) - w + 1)
            if edit_distance(a[p : p + w], b[q : q + w], max_dist=eps) <= eps
        }
        assert set(result.offsets) == expected

    def test_self_join_excludes_trivial(self):
        result = subsequence_join("ACGT" * 30, None, window_length=6, epsilon=1,
                                  buffer_pages=6, windows_per_page=16)
        assert all(p < q for p, q in result.offsets)

    def test_same_object_is_self_join(self):
        text = "ACGT" * 30
        a = subsequence_join(text, None, window_length=6, epsilon=0,
                             buffer_pages=6, windows_per_page=16)
        b = subsequence_join(text, text, window_length=6, epsilon=0,
                             buffer_pages=6, windows_per_page=16)
        # Passing the identical object means self join too.
        assert sorted(a.offsets) == sorted(b.offsets)

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            subsequence_join("ACGT" * 10, np.arange(50.0), window_length=4, epsilon=1)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            subsequence_join("ACGT" * 10, None, window_length=4, epsilon=epsilon,
                             buffer_pages=4, windows_per_page=2)


class TestNumericSubsequenceJoin:
    def test_matches_brute_force(self, rng):
        a = rng.normal(size=150).cumsum()
        b = np.concatenate([a[20:80] + rng.normal(scale=0.01, size=60), rng.normal(size=90).cumsum()])
        w, eps = 10, 0.2
        result = subsequence_join(a, b, window_length=w, epsilon=eps,
                                  buffer_pages=6, windows_per_page=16)
        wa = np.lib.stride_tricks.sliding_window_view(a, w)
        wb = np.lib.stride_tricks.sliding_window_view(b, w)
        expected = {
            (p, q)
            for p in range(wa.shape[0])
            for q in range(wb.shape[0])
            if np.linalg.norm(wa[p] - wb[q]) <= eps
        }
        assert set(result.offsets) == expected
        assert result.num_pairs > 0  # the planted overlap must be found

    def test_report_attached(self, rng):
        seq = rng.normal(size=200).cumsum()
        result = subsequence_join(seq, None, window_length=8, epsilon=0.1,
                                  buffer_pages=6, windows_per_page=16)
        assert result.report.method == "sc"
        assert result.window_length == 8


class TestDtwSubsequenceJoin:
    def test_dtw_band_passthrough(self, rng):
        seq = rng.normal(size=250).cumsum()
        euclid = subsequence_join(seq, None, window_length=10, epsilon=0.4,
                                  buffer_pages=8, windows_per_page=16)
        dtw = subsequence_join(seq, None, window_length=10, epsilon=0.4,
                               buffer_pages=8, windows_per_page=16, dtw_band=2)
        # Warping can only admit more pairs at the same threshold.
        assert set(euclid.offsets) <= set(dtw.offsets)

    def test_dtw_rejected_for_strings(self):
        with pytest.raises(TypeError, match="numeric"):
            subsequence_join("ACGT" * 20, None, window_length=4, epsilon=1,
                             dtw_band=1)
