"""Batched filter-and-refine distance kernels.

Every joiner routes page-pair refinement through this layer.  The design
follows the lower-bound-cascade shape of the GPU self-join literature
(Gowanlock & Karsin) and Xling: a *vectorised prefilter* computed over
whole candidate blocks at once, then a *batched exact refine* that
processes all surviving pairs of a page pair in one call with a shared
early-abandon threshold.  Each batched kernel is bit-identical to its
scalar reference (``dtw_distance``, ``edit_distance``, the Minkowski
difference-tensor evaluation) — the batching changes *when* numbers are
computed, never *which* numbers.

Modules
-------
``minkowski``
    Gram-matrix prefilter + exact gathered refine for L_p joins; chunked
    full pairwise matrices.
``dtw``
    Block Keogh envelopes, LB_Keogh over whole window blocks, and a
    batched banded DP with shared early abandon.
``edit``
    Batched banded Levenshtein DP over byte-encoded window pairs.
``frequency``
    The text joiner's exact integer frequency-distance filter
    (``L1 <= floor(2 eps)`` over letter-major count panels).
``wavefront``
    Anti-diagonal rewrites of the DTW/edit DPs — batch × diagonal
    vectorisation, bit-identical to the row kernels.
``backends``
    :class:`KernelBackend`, the object every joiner routes its DP chunk
    kernels and panel filters through: the wavefront sweeps by default,
    or a subclass passed to ``make_numeric_joiner`` / ``make_text_joiner``.
"""

from repro.kernels.backends import KernelBackend, resolve_backend
from repro.kernels.dtw import batch_envelopes, dtw_batch, lb_keogh_block
from repro.kernels.edit import edit_batch, encode_strings
from repro.kernels.minkowski import minkowski_pairs, minkowski_pairwise

__all__ = [
    "batch_envelopes",
    "dtw_batch",
    "lb_keogh_block",
    "edit_batch",
    "encode_strings",
    "minkowski_pairs",
    "minkowski_pairwise",
    "KernelBackend",
    "resolve_backend",
]
