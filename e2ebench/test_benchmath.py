"""Tests for the benchmark's own arithmetic and oracles.

Run with ``python3 -m pytest e2ebench`` from the repository root.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import benchmath
import oracles
from benchmath import Tracer

HERE = Path(__file__).resolve().parent


# -- tail percentile -----------------------------------------------------------------


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    value, pct, n = benchmath.tail(list(range(1, 101)))
    # 90 has exactly ten samples (91..100) beyond it; 91 has nine.
    assert (value, pct, n) == (90.0, 90.0, 100)


def test_tail_is_order_independent():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 12.0, 11.0]
    assert benchmath.tail(values) == (2.0, 100.0 * 2 / 12, 12)


def test_tail_with_eleven_samples_is_the_minimum():
    assert benchmath.tail([float(x) for x in range(11)]) == (0.0, 100.0 / 11, 11)


def test_tail_with_ten_or_fewer_samples_falls_back_to_the_maximum():
    assert benchmath.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert benchmath.tail([float(x) for x in range(10)]) == (9.0, 100.0, 10)


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        benchmath.tail([])


# -- self time ------------------------------------------------------------------------


def test_self_time_counts_overlapping_children_once():
    tracer = Tracer()
    root = tracer.add("parent", 0.0, 10.0, None)
    tracer.add("a", 1.0, 4.0, root)
    tracer.add("b", 3.0, 6.0, root)  # overlaps a on [3, 4]
    tracer.add("c", 8.0, 12.0, root)  # runs past the parent's end
    own = benchmath.self_times(tracer.spans)
    # Children cover [1, 6] and [8, 10]: 7 of the parent's 10 seconds.
    assert own["parent"] == pytest.approx(3.0)
    assert own["a"] == pytest.approx(3.0)
    assert own["c"] == pytest.approx(4.0)


def test_self_time_subtracts_only_direct_children():
    tracer = Tracer()
    root = tracer.add("join", 0.0, 10.0, None)
    child = tracer.add("executor", 2.0, 9.0, root)
    tracer.add("kernel", 3.0, 5.0, child)
    tracer.add("kernel", 6.0, 7.0, child)
    own = benchmath.self_times(tracer.spans)
    assert own == pytest.approx({"join": 3.0, "executor": 4.0, "kernel": 3.0})


def test_spans_of_one_trace_share_an_id():
    tracer = Tracer()
    for _ in range(2):
        with tracer.trace("join"):
            with tracer.span("sweep"):
                pass
    assert tracer.num_traces == 2
    assert [s.trace_id for s in tracer.spans] == [0, 0, 1, 1]
    assert tracer.spans[1].parent_id == tracer.spans[0].span_id


def test_covered_ignores_children_outside_the_interval():
    assert benchmath.covered((0.0, 1.0), [(2.0, 3.0), (-1.0, 0.0)]) == 0.0


# -- error rate -----------------------------------------------------------------------


def test_error_rate_counts_failed_refused_and_wrong():
    assert benchmath.error_rate(20, failed=1, refused=2, wrong=1) == pytest.approx(0.2)
    assert benchmath.error_rate(5, failed=0) == 0.0


def test_error_rate_rejects_impossible_counts():
    with pytest.raises(ValueError):
        benchmath.error_rate(0, failed=0)
    with pytest.raises(ValueError):
        benchmath.error_rate(3, failed=2, wrong=2)


# -- oracles --------------------------------------------------------------------------


def test_points_within_is_inclusive_and_keeps_duplicates():
    r = np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 0.25]])
    s = np.array([[0.0, 0.5], [3.0, 3.0], [0.25, 0.25]])
    keys = oracles.points_within(r, s, 0.5)
    pairs = {(int(k >> 32), int(k & 0xFFFFFFFF)) for k in keys}
    # (0, 0) sits exactly at 0.5; (2, 2) is a duplicate point at distance 0.
    assert pairs == {(0, 0), (0, 2), (2, 0), (2, 2)}


def _levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_windows_within_one_edit_on_a_hand_checked_text():
    text = "ACGTACGTTCGT"
    keys = oracles.windows_within_one_edit(text, 4)
    pairs = {(int(k >> 32), int(k & 0xFFFFFFFF)) for k in keys}
    # ACGT@0 = ACGT@4; TCGT@8 is one substitution from both; CGTA@1/CGTT@5,
    # GTAC@2/GTTC@6 and TACG@3/TTCG@7 differ in one place each.
    assert pairs == {(0, 4), (0, 8), (4, 8), (1, 5), (2, 6), (3, 7)}


def test_windows_within_one_edit_matches_brute_force_edit_distance():
    rng = np.random.default_rng(3)
    text = "".join(rng.choice(list("AC"), size=60))
    w = 6
    expected = {
        (a, b)
        for a, b in itertools.combinations(range(len(text) - w + 1), 2)
        if _levenshtein(text[a:a + w], text[b:b + w]) <= 1
    }
    keys = oracles.windows_within_one_edit(text, w)
    assert {(int(k >> 32), int(k & 0xFFFFFFFF)) for k in keys} == expected
    assert len(expected) > 10


def test_pair_keys_sort_and_unordered_keys_normalise():
    assert oracles.pair_keys([(1, 0), (0, 5)]).tolist() == [5, 1 << 32]
    assert oracles.unordered_keys([(5, 0)]).tolist() == [5]
    with pytest.raises(ValueError):
        oracles.pair_keys([(-1, 0)])


# -- declarations -------------------------------------------------------------------


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((HERE / "workloads.json").read_text())
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == spec["end_to_end_units"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec["per_layer_units"]
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    assert set(spec["layer_to_end_to_end"]) == set(spec["per_layer_units"])
