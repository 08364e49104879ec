"""Prefilter configuration and the ``prefilter=`` argument resolver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

__all__ = ["PrefilterConfig", "resolve_prefilter"]


@dataclass(frozen=True)
class PrefilterConfig:
    """How the sketch cascade prunes the prediction matrix's marked cells.

    The cascade unmarks cells whose estimated collision probability is
    negligible, calibrated so the estimated share of lost result pairs
    stays within ``1 - recall_target``.

    recall_target:
        The calibration target — the estimated fraction of true result
        pairs that must survive the pruning.
    margin:
        Safety factor on the allowed estimated loss: the pruning budget
        is ``(1 - recall_target) * margin`` of the total estimated
        collision mass.  Sketch estimates carry sampling noise, so the
        default spends only half the nominal budget.
    cell_pair_floor:
        A cell whose own estimated mass reaches this many result pairs
        is never unmarked, regardless of the budget.  Guards against
        score-dependent estimator bias on correlated data (see
        :func:`repro.sketch.cascade.select_unmark`); ``0`` disables
        the floor.
    num_hashes / num_quantiles:
        Numeric sketches: number of random unit projections per dataset
        and quantile points stored per page per projection.
    paa_segments:
        Sequence windows are reduced to this many PAA segments before
        projection (the PAA-domain signature).
    minhash_hashes / ngram_length:
        Text sketches: minhash signature width and the n-gram length
        hashed from each page's symbol span.
    seed:
        Seeds the projection directions and minhash permutations.  Both
        datasets of a join must use the same seed (one config drives
        both sides, so this holds by construction).
    """

    recall_target: float = 0.99
    margin: float = 0.5
    cell_pair_floor: float = 0.5
    num_hashes: int = 8
    num_quantiles: int = 11
    paa_segments: int = 8
    minhash_hashes: int = 16
    ngram_length: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        if not (0.0 < self.recall_target <= 1.0):
            raise ValueError(
                f"recall_target must be in (0, 1], got {self.recall_target}"
            )
        if not (0.0 < self.margin <= 1.0):
            raise ValueError(f"margin must be in (0, 1], got {self.margin}")
        if self.cell_pair_floor < 0.0:
            raise ValueError(
                f"cell_pair_floor must be >= 0, got {self.cell_pair_floor}"
            )
        for name in ("num_hashes", "num_quantiles", "paa_segments",
                     "minhash_hashes", "ngram_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def resolve_prefilter(
    prefilter: Union[None, str, PrefilterConfig],
) -> Optional[PrefilterConfig]:
    """Normalise ``join``'s ``prefilter=`` argument to a config or ``None``.

    Accepts ``None`` (off), the string ``"approximate"`` (default
    parameters), or a full :class:`PrefilterConfig`.
    """
    if prefilter is None:
        return None
    if isinstance(prefilter, PrefilterConfig):
        return prefilter
    if isinstance(prefilter, str):
        if prefilter != "approximate":
            raise ValueError(
                f"prefilter must be 'approximate' or a PrefilterConfig, "
                f"got {prefilter!r}"
            )
        return PrefilterConfig()
    raise TypeError(
        f"prefilter must be None, 'approximate' or a PrefilterConfig, "
        f"got {type(prefilter).__name__}"
    )
