"""Unit tests for cost-based clustering (CC)."""

import numpy as np
import pytest

from repro.core.costcluster import LinearDiskModelCost, cost_clustering
from repro.core.prediction import PredictionMatrix
from repro.costmodel import CostModel


def _layout(matrix, seek_s):
    """Row pages then, one block apart, column pages; unit transfer cost.

    The gap keeps row and column runs separate, so a page set costs
    ``#pages + seek_s * (#row runs + #col runs)``.
    """
    return LinearDiskModelCost(
        np.arange(matrix.num_rows),
        matrix.num_rows + 1 + np.arange(matrix.num_cols),
        CostModel(seek_s=seek_s, transfer_s=1.0),
    )


def unit_page_cost(matrix):
    """Cost = number of distinct pages (pure transfer counting)."""
    return _layout(matrix, seek_s=0.0)


def seeky_page_cost(matrix):
    """Cost with a seek penalty per non-adjacent page run."""
    return _layout(matrix, seek_s=5.0)


def random_matrix(rng, rows=25, cols=25, density=0.12):
    mask = rng.random((rows, cols)) < density
    if not mask.any():
        mask[0, 0] = True
    return PredictionMatrix.from_coo(rows, cols, *np.nonzero(mask))


class TestPartitionProperties:
    def test_every_entry_in_exactly_one_cluster(self, rng):
        for _ in range(5):
            matrix = random_matrix(rng)
            clusters, _ = cost_clustering(matrix, 8, unit_page_cost(matrix))
            seen = [entry for cluster in clusters for entry in cluster.entries]
            assert sorted(seen) == sorted(matrix.entries())

    def test_clusters_fit_buffer(self, rng):
        for buffer_pages in (3, 6, 10):
            matrix = random_matrix(rng, density=0.25)
            clusters, _ = cost_clustering(matrix, buffer_pages, unit_page_cost(matrix))
            for cluster in clusters:
                assert cluster.fits_in_buffer(buffer_pages)

    def test_source_matrix_unmodified(self, rng):
        matrix = random_matrix(rng)
        before = matrix.num_marked
        cost_clustering(matrix, 8, unit_page_cost(matrix))
        assert matrix.num_marked == before

    def test_deterministic_without_rng(self, rng):
        matrix = random_matrix(rng)
        a, _ = cost_clustering(matrix, 8, unit_page_cost(matrix))
        b, _ = cost_clustering(matrix, 8, unit_page_cost(matrix))
        assert [c.entries for c in a] == [c.entries for c in b]

    def test_seeded_rng_reproducible(self, rng):
        matrix = random_matrix(rng)
        a, _ = cost_clustering(matrix, 8, unit_page_cost(matrix), rng=np.random.default_rng(5))
        b, _ = cost_clustering(matrix, 8, unit_page_cost(matrix), rng=np.random.default_rng(5))
        assert [c.entries for c in a] == [c.entries for c in b]


class TestCostAwareness:
    def test_prefers_adjacent_pages(self):
        """With a seek penalty, CC grows toward physically adjacent pages."""
        # A dense run around (10, 10) and a stray entry far away.
        run = np.arange(10, 15)
        matrix = PredictionMatrix.from_coo(
            30, 30,
            np.concatenate([run, np.full(5, 10), [29]]),
            np.concatenate([np.full(5, 10), run, [29]]),
        )
        clusters, _ = cost_clustering(matrix, 10, seeky_page_cost(matrix))
        main = max(clusters, key=lambda c: c.num_entries)
        assert (29, 29) not in main.entries

    def test_grows_from_densest_region(self):
        # Dense block at (0..2, 0..2); sparse singles elsewhere.
        block = [(r, c) for r in range(3) for c in range(3)] + [(30, 30)]
        matrix = PredictionMatrix.from_coo(40, 40, *np.array(block).T)
        clusters, _ = cost_clustering(matrix, 8, unit_page_cost(matrix), histogram_bins=8)
        first = clusters[0]
        assert all(r <= 2 and c <= 2 for r, c in first.entries)

    def test_stats_populated(self, rng):
        matrix = random_matrix(rng)
        _, stats = cost_clustering(matrix, 8, unit_page_cost(matrix))
        assert stats.seeds_drawn >= 1
        assert stats.cost_evaluations >= 1
        assert stats.total_operations > 0


class TestEdgeCases:
    def test_rejects_tiny_buffer(self):
        with pytest.raises(ValueError):
            cost_clustering(PredictionMatrix(2, 2), 1, unit_page_cost(PredictionMatrix(2, 2)))

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            cost_clustering(
                PredictionMatrix(2, 2), 4, unit_page_cost(PredictionMatrix(2, 2)),
                histogram_bins=0,
            )

    def test_empty_matrix(self):
        matrix = PredictionMatrix(5, 5)
        clusters, _ = cost_clustering(matrix, 4, unit_page_cost(matrix))
        assert clusters == []

    def test_single_entry(self):
        matrix = PredictionMatrix.from_coo(5, 5, np.array([2]), np.array([4]))
        clusters, _ = cost_clustering(matrix, 4, unit_page_cost(matrix))
        assert len(clusters) == 1
        assert clusters[0].entries == ((2, 4),)
