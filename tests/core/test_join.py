"""Unit tests for the top-level join API."""

import numpy as np
import pytest

from repro.core.join import JOIN_METHODS, IndexedDataset, join
from repro.costmodel import CostModel


class TestIndexedDatasetConstruction:
    def test_from_points(self, rng):
        ds = IndexedDataset.from_points(rng.random((100, 3)), page_capacity=16)
        assert ds.kind == "vector"
        assert ds.num_objects == 100
        assert ds.num_pages == ds.index.num_pages

    def test_from_string(self):
        ds = IndexedDataset.from_string("ACGT" * 100, window_length=8, windows_per_page=16)
        assert ds.kind == "text"
        assert ds.features is not None
        assert ds.num_objects == 400 - 8 + 1

    def test_from_time_series(self, rng):
        ds = IndexedDataset.from_time_series(
            rng.normal(size=200).cumsum(), window_length=8, windows_per_page=16
        )
        assert ds.kind == "series"
        assert ds.distance is not None

    def test_paa_requires_euclidean(self, rng):
        with pytest.raises(ValueError):
            IndexedDataset.from_time_series(
                rng.normal(size=200), window_length=8, feature="paa", p=1.0
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_points_rejects_non_finite(self, rng, bad):
        # One bad coordinate would poison its page MBR and silently
        # drop every pair on that page from the join.
        pts = rng.random((300, 3))
        pts[123, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            IndexedDataset.from_points(pts, page_capacity=16)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_time_series_rejects_non_finite(self, rng, bad):
        values = rng.normal(size=200).cumsum()
        values[57] = bad
        with pytest.raises(ValueError, match="finite"):
            IndexedDataset.from_time_series(values, window_length=8, windows_per_page=16)

    def test_full_comparison_weight(self, rng):
        vec = IndexedDataset.from_points(rng.random((50, 2)), page_capacity=16)
        assert vec.full_comparison_weight(0.1) == 1.0
        text = IndexedDataset.from_string("ACGT" * 50, window_length=8, windows_per_page=16)
        assert text.full_comparison_weight(1.0) > 1.0


class TestJoinValidation:
    def test_unknown_method(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(ValueError, match="unknown join method"):
            join(r, s, 0.1, method="hash")

    def test_negative_epsilon(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(ValueError):
            join(r, s, -1.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_epsilon(self, rng, epsilon):
        # NaN compares false against 0, so a sign check alone lets it
        # through and the join silently returns no pairs.
        r = IndexedDataset.from_points(rng.random((300, 3)), page_capacity=16)
        s = IndexedDataset.from_points(rng.random((200, 3)), page_capacity=16)
        assert join(r, s, 0.1).num_pairs > 0
        with pytest.raises(ValueError, match="epsilon"):
            join(r, s, epsilon)

    def test_kind_mismatch(self, vector_pair, dna_dataset):
        r, _ = vector_pair
        with pytest.raises(ValueError, match="kinds"):
            join(r, dna_dataset, 0.1)


class TestJoinBehaviour:
    def test_matches_brute_force(self, rng):
        pts_r = rng.random((120, 2))
        pts_s = rng.random((90, 2))
        r = IndexedDataset.from_points(pts_r, page_capacity=8)
        s = IndexedDataset.from_points(pts_s, page_capacity=8)
        epsilon = 0.1
        result = join(r, s, epsilon, method="sc", buffer_pages=10)

        # Map result global ids (positions in the reordered files) back to
        # original rows and compare against brute force.
        expected = set()
        for i in range(120):
            for j in range(90):
                if np.linalg.norm(pts_r[i] - pts_s[j]) <= epsilon:
                    expected.add((i, j))
        got = {
            (int(r.index.order[a]), int(s.index.order[b])) for a, b in result.pairs
        }
        assert got == expected

    def test_count_only_empty_pairs(self, vector_pair):
        r, s = vector_pair
        with_pairs = join(r, s, 0.05, method="sc", buffer_pages=10)
        counted = join(r, s, 0.05, method="sc", buffer_pages=10, count_only=True)
        assert counted.pairs == []
        assert counted.num_pairs == with_pairs.num_pairs == len(with_pairs.pairs)

    def test_keep_details(self, vector_pair):
        r, s = vector_pair
        result = join(r, s, 0.05, method="sc", buffer_pages=10, keep_details=True)
        assert result.matrix is not None
        assert result.clusters is not None
        assert all(c.fits_in_buffer(10) for c in result.clusters)

    def test_details_absent_by_default(self, vector_pair):
        r, s = vector_pair
        result = join(r, s, 0.05, method="sc", buffer_pages=10)
        assert result.matrix is None and result.clusters is None

    def test_report_fields_consistent(self, vector_pair):
        r, s = vector_pair
        result = join(r, s, 0.05, method="sc", buffer_pages=10)
        report = result.report
        assert report.method == "sc"
        assert report.page_reads > 0
        assert report.io_seconds > 0
        assert report.total_seconds >= report.io_seconds
        assert report.extra["marked_entries"] >= 0

    def test_custom_cost_model_scales_io(self, vector_pair):
        r, s = vector_pair
        cheap = join(r, s, 0.05, method="sc", buffer_pages=10,
                     cost_model=CostModel(seek_s=0.001, transfer_s=0.0001))
        costly = join(r, s, 0.05, method="sc", buffer_pages=10,
                      cost_model=CostModel(seek_s=0.1, transfer_s=0.01))
        assert costly.report.io_seconds > cheap.report.io_seconds
        assert costly.report.page_reads == cheap.report.page_reads

    def test_self_join_pairs_are_canonical(self, rng):
        pts = rng.random((80, 2))
        ds = IndexedDataset.from_points(pts, page_capacity=8)
        result = join(ds, ds, 0.08, method="sc", buffer_pages=10)
        assert all(a < b for a, b in result.pairs)
        assert len(set(result.pairs)) == len(result.pairs)

    def test_rand_sc_seed_changes_order_not_result(self, vector_pair):
        r, s = vector_pair
        a = join(r, s, 0.05, method="rand-sc", buffer_pages=10, seed=1)
        b = join(r, s, 0.05, method="rand-sc", buffer_pages=10, seed=2)
        assert sorted(a.pairs) == sorted(b.pairs)

    def test_sc_never_reads_more_than_pm_nlj(self, vector_pair):
        r, s = vector_pair
        sc = join(r, s, 0.05, method="sc", buffer_pages=8, count_only=True)
        pm = join(r, s, 0.05, method="pm-nlj", buffer_pages=8, count_only=True)
        assert sc.report.page_reads <= pm.report.page_reads
