"""Unit tests for the page-pair join kernels."""

import numpy as np
import pytest

from repro.core.joiners import make_numeric_joiner, make_text_joiner, text_dp_weight
from repro.costmodel import CostModel
from repro.distance.edit import edit_distance
from repro.distance.frequency import frequency_vectors_sliding
from repro.distance.vector import EuclideanDistance
from repro.errors import ConfigError
from repro.storage.page import SequencePagedDataset, VectorPagedDataset


@pytest.fixture
def model():
    return CostModel(cpu_compare_s=1e-6)


class TestNumericJoiner:
    @pytest.fixture
    def pair(self, rng):
        r = VectorPagedDataset(rng.random((20, 2)), objects_per_page=5, dataset_id="R")
        s = VectorPagedDataset(rng.random((15, 2)), objects_per_page=5, dataset_id="S")
        return r, s

    def test_finds_exact_pairs(self, pair, model):
        r, s = pair
        joiner = make_numeric_joiner(r, s, EuclideanDistance(), 0.3, model, False)
        pairs, count, comparisons, cpu = joiner(1, 2, r.page_objects(1), s.page_objects(2))
        assert count == len(pairs)
        assert comparisons == 25
        assert cpu == pytest.approx(25e-6)
        for gid_r, gid_s in pairs:
            d = np.linalg.norm(r.vectors[gid_r] - s.vectors[gid_s])
            assert d <= 0.3

    def test_global_ids_offset_by_page(self, pair, model):
        r, s = pair
        joiner = make_numeric_joiner(r, s, EuclideanDistance(), 10.0, model, False)
        pairs, _count, _cmp, _cpu = joiner(2, 1, r.page_objects(2), s.page_objects(1))
        assert {gid_r for gid_r, _ in pairs} == set(range(10, 15))
        assert {gid_s for _, gid_s in pairs} == set(range(5, 10))

    def test_self_join_diagonal_strict_upper(self, pair, model):
        r, _ = pair
        joiner = make_numeric_joiner(r, r, EuclideanDistance(), 10.0, model, True)
        pairs, count, _cmp, _cpu = joiner(0, 0, r.page_objects(0), r.page_objects(0))
        assert count == 10  # C(5, 2) pairs, no self matches
        for a, b in pairs:
            assert a < b

    def test_count_only_mode(self, pair, model):
        r, s = pair
        joiner = make_numeric_joiner(
            r, s, EuclideanDistance(), 10.0, model, False, collect_pairs=False
        )
        pairs, count, _cmp, _cpu = joiner(0, 0, r.page_objects(0), s.page_objects(0))
        assert pairs == []
        assert count == 25

    def test_unsupported_distance_rejected(self, pair, model):
        from repro.distance.edit import EditDistance
        from repro.errors import ConfigError

        class ChebyshevDistance:
            comparison_weight = 1.0

            def pairs_within(self, left, right, epsilon):
                d = np.abs(left[:, None, :] - right[None, :, :]).max(axis=2)
                return [tuple(ij) for ij in np.argwhere(d <= epsilon).tolist()]

        r, s = pair
        for distance in (ChebyshevDistance(), EditDistance(window_length=4)):
            with pytest.raises(ConfigError, match="MinkowskiDistance and DTWDistance"):
                make_numeric_joiner(r, s, distance, 0.3, model, False)


class TestTextJoiner:
    @pytest.fixture
    def dataset(self):
        from repro.datasets import markov_dna

        text = markov_dna(800, seed=4)
        ds = SequencePagedDataset(text, symbols_per_page=20, window_length=12, dataset_id="G")
        features = frequency_vectors_sliding(text, 12)
        return ds, features

    def test_matches_brute_force(self, dataset, model):
        ds, features = dataset
        epsilon = 1
        joiner = make_text_joiner(ds, ds, features, features, epsilon, model, False)
        for page_r, page_s in [(0, 5), (3, 3), (7, 20)]:
            pairs, count, _cmp, _cpu = joiner(
                page_r, page_s, ds.page_objects(page_r), ds.page_objects(page_s)
            )
            expected = set()
            r_start, r_stop = ds.window_range(page_r)
            s_start, s_stop = ds.window_range(page_s)
            text = ds.sequence
            for p in range(r_start, r_stop):
                for q in range(s_start, s_stop):
                    if edit_distance(text[p : p + 12], text[q : q + 12], max_dist=1) <= epsilon:
                        expected.add((p, q))
            assert set(pairs) == expected
            assert count == len(expected)

    def test_brute_force_epsilon_two(self, dataset, model):
        """eps >= 2 exercises the DP fallback behind the Hamming filter."""
        ds, features = dataset
        joiner = make_text_joiner(ds, ds, features, features, 2, model, False)
        page_r, page_s = 1, 9
        pairs, _count, _cmp, _cpu = joiner(
            page_r, page_s, ds.page_objects(page_r), ds.page_objects(page_s)
        )
        text = ds.sequence
        expected = set()
        r_start, r_stop = ds.window_range(page_r)
        s_start, s_stop = ds.window_range(page_s)
        for p in range(r_start, r_stop):
            for q in range(s_start, s_stop):
                if edit_distance(text[p : p + 12], text[q : q + 12], max_dist=2) <= 2:
                    expected.add((p, q))
        assert set(pairs) == expected

    def test_self_join_diagonal(self, dataset, model):
        ds, features = dataset
        joiner = make_text_joiner(ds, ds, features, features, 1, model, True)
        pairs, _count, _cmp, _cpu = joiner(2, 2, ds.page_objects(2), ds.page_objects(2))
        for p, q in pairs:
            assert p < q

    def test_rejects_fractional_features(self, dataset, model):
        ds, features = dataset
        bad = features.copy()
        bad[3, :2] += [0.5, -0.5]  # row sum kept at 12, counts fractional
        with pytest.raises(ConfigError, match="integer counts"):
            make_text_joiner(ds, ds, bad, features, 1, model, False)

    def test_rejects_wrong_row_sum(self, dataset, model):
        ds, features = dataset
        bad = features.copy()
        bad[7, 0] += 1.0
        with pytest.raises(ConfigError, match="sum to the window length 12"):
            make_text_joiner(ds, ds, features, bad, 1, model, False)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda f: f[:, :3], "alphabet widths differ"),
            (lambda f: f[:-1], "rows for"),
            (lambda f: f.ravel(), "2-D"),
            (lambda f: np.where(f == f.max(), np.nan, f), "finite"),
            (lambda f: f - 1.0, "non-negative"),
        ],
    )
    def test_rejects_malformed_features(self, dataset, model, mutate, message):
        ds, features = dataset
        with pytest.raises(ConfigError, match=message):
            make_text_joiner(ds, ds, features, mutate(features), 1, model, False)

    def test_rejects_mismatched_window_lengths(self, dataset, model):
        ds, features = dataset
        other = SequencePagedDataset(
            ds.sequence, symbols_per_page=20, window_length=10, dataset_id="H"
        )
        other_features = frequency_vectors_sliding(ds.sequence, 10)
        with pytest.raises(ConfigError, match="window lengths differ"):
            make_text_joiner(ds, other, features, other_features, 1, model, False)

    def test_integer_features_accepted(self, dataset, model):
        ds, features = dataset
        counts = features.astype(np.int32)
        joiner = make_text_joiner(ds, ds, counts, counts, 1, model, False)
        reference = make_text_joiner(ds, ds, features, features, 1, model, False)
        assert joiner.join_cluster([(0, 5), (3, 3)]) == reference.join_cluster(
            [(0, 5), (3, 3)]
        )

    def test_dp_weight_scales(self):
        assert text_dp_weight(500, 5) > text_dp_weight(50, 5)
        assert text_dp_weight(100, 5) > text_dp_weight(100, 1)
