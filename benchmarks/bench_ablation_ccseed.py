"""Ablation: CC seed selection (Figure 8, steps 2-3a).

DESIGN.md design choice: CC seeds each cluster from the densest histogram
bucket.  Collapsing the histogram to a single bucket (seeding anywhere)
should not beat density-guided seeding — dense regions make dense,
buffer-efficient clusters (Theorem 2, observation 2).
"""

import pytest

from repro.core.costcluster import LinearDiskModelCost, cost_clustering
from repro.core.sweep import build_prediction_matrix
from repro.experiments.figures import SPATIAL_EPSILON, lbeach_mcounty
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

BUFFER = 12


def _setup():
    r, s = lbeach_mcounty(0.25)
    matrix, _ = build_prediction_matrix(
        r.index.root, s.index.root, SPATIAL_EPSILON, r.num_pages, s.num_pages
    )
    disk = SimulatedDisk()
    pool = BufferPool(disk, BUFFER)
    pool.attach(r.paged)
    pool.attach(s.paged)
    layout = LinearDiskModelCost.from_disk(
        disk, r.paged.dataset_id, s.paged.dataset_id, r.num_pages, s.num_pages
    )
    return matrix, layout


def _read_cost(layout, cluster):
    """The cluster's cold read cost, as ``disk.cost_of_read_set`` prices it."""
    return layout.page_set_io(cluster.rows, cluster.cols)[2]


@pytest.mark.parametrize("bins", [1, 32])
def test_cc_seeding(benchmark, bins):
    matrix, layout = _setup()
    clusters, stats = benchmark.pedantic(
        lambda: cost_clustering(matrix, BUFFER, layout, histogram_bins=bins),
        rounds=1, iterations=1,
    )
    total_cost = sum(_read_cost(layout, c) for c in clusters)
    print(f"\nhistogram bins={bins}: clusters={len(clusters)}, "
          f"summed read cost={total_cost:.3f}s, expansions={stats.expansion_steps}")


def test_density_seeding_not_worse():
    matrix, layout = _setup()
    cost_by_bins = {}
    for bins in (1, 32):
        clusters, _ = cost_clustering(matrix, BUFFER, layout, histogram_bins=bins)
        cost_by_bins[bins] = sum(_read_cost(layout, c) for c in clusters)
    assert cost_by_bins[32] <= cost_by_bins[1] * 1.10
