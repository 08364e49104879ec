"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join import IndexedDataset
from repro.costmodel import CostModel
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def cost_model():
    """A cost model with easily-distinguished seek and transfer costs."""
    return CostModel(seek_s=0.010, transfer_s=0.001, cpu_compare_s=1e-6)


@pytest.fixture
def disk(cost_model):
    return SimulatedDisk(cost_model)


@pytest.fixture
def pool(disk):
    return BufferPool(disk, capacity=8)


@pytest.fixture
def small_points(rng):
    """A few hundred clustered 2-d points."""
    centers = rng.random((5, 2))
    labels = rng.integers(0, 5, size=300)
    return np.clip(centers[labels] + rng.normal(scale=0.05, size=(300, 2)), 0, 1)


@pytest.fixture
def vector_pair(small_points, rng):
    """Two small indexed vector datasets."""
    other = np.clip(small_points[:200] + rng.normal(scale=0.02, size=(200, 2)), 0, 1)
    r = IndexedDataset.from_points(small_points, page_capacity=16)
    s = IndexedDataset.from_points(other, page_capacity=16)
    return r, s


@pytest.fixture
def dna_dataset():
    from repro.datasets import markov_dna

    return IndexedDataset.from_string(
        markov_dna(1500, seed=3), window_length=10, windows_per_page=32
    )


def _hand_built_shard_plan(shape: str, num_clusters: int, workers: int):
    """A hand-built partition of a schedule of ``num_clusters`` clusters.

    ``"chunk"`` cuts the schedule into contiguous segments of near-equal
    length; ``"roundrobin"`` deals schedule indices out modulo the shard
    count.  Empty shards are dropped, as :func:`plan_shards` does.  Costs
    are zero: the executor uses them only for the arity check.
    """
    from repro.core.planner import ShardPlan

    k = max(1, min(workers, num_clusters))
    if shape == "chunk":
        bounds = np.linspace(0, num_clusters, k + 1).round().astype(int)
        members = [range(bounds[j], bounds[j + 1]) for j in range(k)]
    elif shape == "roundrobin":
        members = [range(j, num_clusters, k) for j in range(k)]
    else:
        raise ValueError(f"unknown hand-built plan shape {shape!r}")
    shards = tuple(tuple(m) for m in members if len(m))
    return ShardPlan(
        strategy=shape, shards=shards, costs=(0,) * len(shards), duplicated_pages=0
    )


@pytest.fixture
def shard_strategy_for():
    """``f(shape, num_clusters, workers)`` -> a ``join(shard_strategy=)`` value.

    ``"affinity"`` passes through to the planner; the other shapes become
    hand-built :class:`~repro.core.planner.ShardPlan` objects.
    """

    def resolve(shape: str, num_clusters: int, workers: int):
        if shape == "affinity":
            return shape
        return _hand_built_shard_plan(shape, num_clusters, workers)

    return resolve


@pytest.fixture
def hand_built_shard_plan():
    return _hand_built_shard_plan


@pytest.fixture
def per_pair_outcome():
    """``f(r, s, epsilon, clusters)`` -> the per-pair joiner's outcome.

    Calls the built-in joiner once per marked page pair of each cluster,
    in schedule order, reading payloads straight from the page store —
    the oracle for results, comparisons and modeled CPU.
    """
    from repro.core.executor import ExecutionOutcome
    from repro.core.join import _make_joiner
    from repro.costmodel import DEFAULT_COST_MODEL

    def run(r, s, epsilon, clusters):
        joiner = _make_joiner(r, s, epsilon, DEFAULT_COST_MODEL, r is s, True)
        outcome = ExecutionOutcome()
        for cluster in clusters:
            for row, col in cluster.entries:
                outcome.absorb(
                    joiner(
                        row, col, r.paged.page_objects(row),
                        s.paged.page_objects(col),
                    )
                )
        return outcome

    return run
