"""Seeded inputs: one fixed stand-in per dataset, varied by the run seed.

The stand-in generators vary a lot between their own seeds: at the
spatial workload's epsilon the LBeach x MCounty pair count ranges from
0.43 to 1.1 million over seeds 0-4, because the urban cores move.  A run
seed that re-drew the cores would measure a different amount of work
each time.  So each dataset's structure comes from a fixed generator
seed, and the run seed picks a distance-preserving variant of it:

* points: one of the eight symmetries of the unit square (the same one
  for both sides of a join), a jitter far below epsilon, and a shuffle of
  the input order;
* text: a rotation of the sequence by a seeded whole number of pages,
  which keeps every window but the few that cross the seam.

Every variant is a new input for the program, its index layout and its
oracle, while the result size and the work stay close to the stand-in's.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import markov_dna, road_intersections

# Standard deviation of the per-point jitter; epsilon is 0.01 or more.
POINT_JITTER = 1e-4


def square_symmetry(points: np.ndarray, seed: int) -> np.ndarray:
    """Apply the seed's symmetry of the unit square to ``(n, 2)`` points."""
    k = int(np.random.default_rng([seed, 8]).integers(8))
    out = points.copy()
    if k & 1:
        out[:, 0] = 1.0 - out[:, 0]
    if k & 2:
        out[:, 1] = 1.0 - out[:, 1]
    if k & 4:
        out = out[:, ::-1].copy()
    return out


def points(n: int, structure_seed: int, seed: int) -> np.ndarray:
    """``road_intersections(n, structure_seed)`` in the seed's variant."""
    rng = np.random.default_rng([seed, structure_seed])
    base = square_symmetry(road_intersections(n, seed=structure_seed), seed)
    jittered = np.clip(base + rng.normal(scale=POINT_JITTER, size=base.shape), 0.0, 1.0)
    return jittered[rng.permutation(n)]


def dna(n: int, structure_seed: int, seed: int, repeat_share: float, block: int) -> str:
    """``markov_dna(n, structure_seed)`` rotated by a seeded multiple of ``block``.

    With ``block`` the windows per page, most pages keep their windows and
    only move on disk, so the filter work stays close to the stand-in's.
    """
    text = markov_dna(n, seed=structure_seed, repeat_share=repeat_share)
    k = block * int(np.random.default_rng([seed, structure_seed]).integers(n // block))
    return text[k:] + text[:k]
