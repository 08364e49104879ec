"""Property-based tests (hypothesis) for the core invariants.

Each property is one of the paper's stated guarantees:

* Theorem 1 — prediction-matrix completeness;
* FD ≤ ED — the MRS lower-bound chain;
* SC/CC partition correctness and buffer fit (Lemma 2 precondition);
* schedule validity (Lemma 3) and savings accounting (Lemma 4);
* the iterative filter never drops an intersecting pair;
* LRU buffer-pool semantics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clusters import Cluster
from repro.core.filtering import iterative_filter
from repro.core.join import IndexedDataset, join
from repro.core.prediction import PredictionMatrix
from repro.core.schedule import greedy_cluster_order, schedule_savings
from repro.core.square import square_clustering
from repro.costmodel import DEFAULT_COST_MODEL
from repro.distance.edit import edit_distance
from repro.distance.frequency import frequency_distance, frequency_vector
from repro.geometry import Rect

# -- strategies --------------------------------------------------------------

dna_strings = st.text(alphabet="ACGT", min_size=0, max_size=24)

small_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def rects(draw, dim=2):
    lo = np.asarray([draw(small_floats) for _ in range(dim)])
    extent = np.asarray(
        [draw(st.floats(min_value=0, max_value=50, allow_nan=False)) for _ in range(dim)]
    )
    return Rect(lo, lo + extent)


@st.composite
def sparse_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=20))
    cols = draw(st.integers(min_value=1, max_value=20))
    entries = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=rows - 1),
                st.integers(min_value=0, max_value=cols - 1),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return PredictionMatrix.from_coo(rows, cols, *np.array(list(entries)).T)


# -- distance lower bounds -----------------------------------------------------


@given(dna_strings, dna_strings)
def test_frequency_distance_lower_bounds_edit(s, t):
    fd = frequency_distance(frequency_vector(s), frequency_vector(t))
    assert fd <= edit_distance(s, t)


@given(dna_strings, dna_strings)
def test_edit_distance_is_a_metric_on_samples(s, t):
    d = edit_distance(s, t)
    assert d == edit_distance(t, s)
    assert (d == 0) == (s == t)
    assert d <= max(len(s), len(t))


@given(dna_strings, dna_strings, dna_strings)
@settings(max_examples=50)
def test_edit_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


# -- geometry -------------------------------------------------------------------


@given(rects(), rects(), st.floats(min_value=0, max_value=10, allow_nan=False))
def test_extension_intersection_equals_linf_mindist(a, b, eps):
    by_extension = a.extend(eps / 2).intersects(b.extend(eps / 2))
    by_mindist = a.min_dist(b, p=float("inf")) <= eps
    assert by_extension == by_mindist


@given(rects(), rects())
def test_mindist_monotone_in_p(a, b):
    assert a.min_dist(b, p=float("inf")) <= a.min_dist(b, p=2.0) + 1e-9
    assert a.min_dist(b, p=2.0) <= a.min_dist(b, p=1.0) + 1e-9


# -- filtering --------------------------------------------------------------------


@given(
    st.lists(rects(), min_size=1, max_size=8),
    st.lists(rects(), min_size=1, max_size=8),
)
@settings(max_examples=60)
def test_filter_preserves_intersecting_pairs(left, right):
    outcome = iterative_filter(left, right)
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            if a.intersects(b):
                assert outcome.keep_left[i]
                assert outcome.keep_right[j]


# -- clustering --------------------------------------------------------------------


@given(sparse_matrices(), st.integers(min_value=2, max_value=12))
@settings(max_examples=60)
def test_square_clustering_partitions_and_fits(matrix, buffer_pages):
    clusters, _ = square_clustering(matrix, buffer_pages)
    seen = sorted(e for c in clusters for e in c.entries)
    assert seen == sorted(matrix.entries())
    for cluster in clusters:
        assert cluster.num_pages <= buffer_pages


@given(sparse_matrices(), st.integers(min_value=2, max_value=12))
@settings(max_examples=30)
def test_cost_clustering_partitions_and_fits(matrix, buffer_pages):
    from repro.core.costcluster import LinearDiskModelCost, cost_clustering

    layout = LinearDiskModelCost(
        np.arange(matrix.num_rows),
        matrix.num_rows + np.arange(matrix.num_cols),
        DEFAULT_COST_MODEL,
    )
    clusters, _ = cost_clustering(matrix, buffer_pages, layout)
    seen = sorted(e for c in clusters for e in c.entries)
    assert seen == sorted(matrix.entries())
    for cluster in clusters:
        assert cluster.num_pages <= buffer_pages


@given(sparse_matrices(), st.integers(min_value=2, max_value=12))
@settings(max_examples=30)
def test_schedule_is_a_permutation_with_nonnegative_savings(matrix, buffer_pages):
    clusters, _ = square_clustering(matrix, buffer_pages)
    ordered = greedy_cluster_order(clusters, "R", "S")
    assert sorted(c.cluster_id for c in ordered) == sorted(
        c.cluster_id for c in clusters
    )
    assert schedule_savings(ordered, "R", "S") >= 0


# -- end-to-end completeness -------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
)
@settings(max_examples=15, deadline=None)
def test_join_matches_brute_force(seed, epsilon):
    rng = np.random.default_rng(seed)
    pts_r = rng.random((60, 2))
    pts_s = rng.random((40, 2))
    r = IndexedDataset.from_points(pts_r, page_capacity=8)
    s = IndexedDataset.from_points(pts_s, page_capacity=8)
    result = join(r, s, epsilon, method="sc", buffer_pages=8)
    got = {(int(r.index.order[a]), int(s.index.order[b])) for a, b in result.pairs}
    expected = {
        (i, j)
        for i in range(60)
        for j in range(40)
        if float(np.sqrt(((pts_r[i] - pts_s[j]) ** 2).sum())) <= epsilon
    }
    assert got == expected
