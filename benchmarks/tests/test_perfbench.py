"""Tests of the benchmark itself: the independent checker, the tracer and
the agreement of BENCHMARK.json with what run.py prints.

    PYTHONPATH=src python -m pytest benchmarks/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fillcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from fillreduce import (SparsityPattern, fill_path_oracle,  # noqa: E402
                        generate_delaunay, min_degree_order)

TINY = {
    "train": lambda: workloads.Train(sizes=(20, 30), sets=2),
    "order_gpo": lambda: workloads.OrderGpo(train_sizes=(20, 25), sizes=(30, 40)),
    "bench_baselines": lambda: workloads.BenchBaselines(delaunay_sizes=(40,), grid_sides=(4, 5)),
}


def path(n):
    return SparsityPattern(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves):
    return SparsityPattern(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def count(p, perm):
    return fillcheck.fill_count(p.n, p.edges, perm)


def test_fill_count_hand_derived_cases():
    assert count(path(7), range(7)) == 0
    assert count(path(7), [3, 0, 6, 1, 5, 2, 4]) == 1
    for leaves in (1, 2, 5, 9):
        assert count(star(leaves), range(leaves + 1)) == leaves * (leaves - 1) // 2
        assert count(star(leaves), list(range(1, leaves + 1)) + [0]) == 0
    c4 = SparsityPattern(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for order in ([0, 1, 2, 3], [2, 0, 3, 1], [3, 2, 1, 0]):
        assert count(c4, order) == 1


@pytest.mark.parametrize("k", [3, 5, 10, 20])
def test_fill_count_grid_natural_order(k):
    assert count(workloads.grid_pattern(k), range(k * k)) == (k - 1) ** 3


def test_fill_count_matches_path_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 6, 11, 14):
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
        p = SparsityPattern(n, edges)
        perm = rng.permutation(n).tolist()
        assert count(p, perm) == len(fill_path_oracle(p, perm))


def test_fill_count_rejects_non_permutation():
    with pytest.raises(fillcheck.CheckError):
        count(path(3), [0, 0, 2])


def test_check_min_degree():
    p = generate_delaunay(60, np.random.default_rng(3))
    perm = list(min_degree_order(p))
    fillcheck.check_min_degree(p.n, p.edges, perm)
    with pytest.raises(fillcheck.CheckError):
        fillcheck.check_min_degree(p.n, p.edges, perm[1:2] + perm[:1] + perm[2:])


def test_check_delaunay():
    fillcheck.check_delaunay(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    with pytest.raises(fillcheck.CheckError, match="disconnected"):
        fillcheck.check_delaunay(4, [(0, 1), (2, 3)])
    with pytest.raises(fillcheck.CheckError, match="planar bound"):
        fillcheck.check_delaunay(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


def test_cuthill_mckee_renumbers_without_changing_the_graph():
    p = generate_delaunay(80, np.random.default_rng(5))
    q = workloads.cuthill_mckee(p)
    assert (q.n, len(q.edges)) == (p.n, len(p.edges))
    assert sorted(len(a) for a in q.adjacency()) == sorted(len(a) for a in p.adjacency())


def targets_now():
    return [owner.__dict__[attr] for owner, attr, _ in spans.layer_targets()]


def test_wrappers_restored_after_traced_runs(tmp_path):
    before = targets_now()
    tracer = spans.Tracer(memory=True)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert targets_now() != before
            raise RuntimeError("inside the traced block")
    assert targets_now() == before
    for name, make in TINY.items():
        run.trace(make(), 1, tmp_path / name / "inputs")
        assert targets_now() == before


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_runs_agree(tmp_path, name):
    wl = TINY[name]()
    state = wl.setup(2, tmp_path)
    untraced_calls, traced_calls = [], []
    with wl.capture(untraced_calls):
        untraced = wl.run(state, 0)
    with spans.Tracer().installed() as tracer, wl.capture(traced_calls):
        traced = wl.run(state, 0)
    assert tracer.spans
    assert wl.orderings(traced_calls) == wl.orderings(untraced_calls)
    assert wl.fingerprint(traced) == wl.fingerprint(untraced)
    assert wl.check(state, traced, traced_calls) == wl.check(state, untraced, untraced_calls)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                    ["symbolic.eliminate", 5.0, 6.0, 0]]
    seconds, calls = tracer.self_times()
    assert seconds["outer"] == 6.0 and seconds["inner"] == 3.0
    assert seconds["symbolic.eliminate.in_outer"] == 1.0
    assert calls == {"outer": 1, "inner": 1, "symbolic.eliminate": 1}


def test_benchmark_json_matches_printed_metrics(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(TINY) == set(workloads.WORKLOADS)
    metrics, _, attempted, failed = run.measure(TINY["bench_baselines"](), 1, 1,
                                                tmp_path / "e2e" / "inputs")
    assert attempted > 0 and failed == 0
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    metrics, _, _, _ = run.trace(TINY["order_gpo"](), 1, tmp_path / "layers" / "inputs")
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert metrics["evaluation.gpo_order.peak_mb"]["value"] > 0
