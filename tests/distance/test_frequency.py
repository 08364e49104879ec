"""Unit tests for frequency vectors and the frequency distance."""

import numpy as np
import pytest

from repro.distance.edit import edit_distance
from repro.distance.frequency import (
    frequency_distance,
    frequency_vector,
    frequency_vectors_sliding,
)


class TestFrequencyVector:
    def test_counts(self):
        vec = frequency_vector("ACGTAA")
        assert np.array_equal(vec, [3, 1, 1, 1])

    def test_custom_alphabet(self):
        vec = frequency_vector("abba", alphabet="ab")
        assert np.array_equal(vec, [2, 2])

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            frequency_vector("ACGX")

    def test_rejects_duplicate_alphabet(self):
        with pytest.raises(ValueError):
            frequency_vector("AA", alphabet="AA")


class TestSlidingVectors:
    def test_matches_per_window(self):
        s = "ACGTACGGTA"
        w = 4
        sliding = frequency_vectors_sliding(s, w)
        assert sliding.shape == (7, 4)
        for k in range(7):
            assert np.array_equal(sliding[k], frequency_vector(s[k : k + w]))

    def test_rejects_short_sequence(self):
        with pytest.raises(ValueError):
            frequency_vectors_sliding("ACG", 4)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            frequency_vectors_sliding("ACGT", 0)

    def test_sliding_rejects_unknown_symbol(self):
        with pytest.raises(ValueError, match="symbol 'N' is not in alphabet 'ACGT'"):
            frequency_vectors_sliding("ACGTNACGT", 4)


class TestFrequencyDistance:
    def test_identical_is_zero(self):
        u = frequency_vector("ACGT")
        assert frequency_distance(u, u) == 0.0

    def test_known_value(self):
        # AAAA -> AATT: two substitutions; FD = max(2, 2) = 2.
        u = frequency_vector("AAAA")
        v = frequency_vector("AATT")
        assert frequency_distance(u, v) == 2.0

    def test_symmetry(self, rng):
        for _ in range(20):
            u = rng.integers(0, 10, size=4).astype(float)
            v = rng.integers(0, 10, size=4).astype(float)
            assert frequency_distance(u, v) == frequency_distance(v, u)

    def test_lower_bounds_edit_distance(self, rng):
        """The MRS-index soundness property: FD <= ED for all string pairs."""
        alphabet = "ACGT"
        for _ in range(100):
            s = "".join(alphabet[k] for k in rng.integers(0, 4, size=8))
            t = "".join(alphabet[k] for k in rng.integers(0, 4, size=8))
            fd = frequency_distance(frequency_vector(s), frequency_vector(t))
            assert fd <= edit_distance(s, t)

    def test_dominates_linf(self, rng):
        """FD >= L_inf of the frequency vectors (used by the box test)."""
        for _ in range(50):
            u = rng.integers(0, 12, size=4).astype(float)
            v = rng.integers(0, 12, size=4).astype(float)
            assert frequency_distance(u, v) >= np.abs(u - v).max()
