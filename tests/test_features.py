from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cycle_pattern, path_pattern, patterns, random_pattern,
                      reference_features, reference_propagation, star_pattern)
from fillreduce import (EliminationGraph, NetConfig, SparsityPattern, build_propagation,
                        compute_features, normalize_features)
from fillreduce.policy_net import BACKBONES


def brute_force_influence(p: SparsityPattern) -> dict[int, float]:
    """Independent recomputation straight from the edge list."""
    adj = p.adjacency()
    out = {}
    for v in range(p.n):
        d = len(adj[v])
        out[v] = 0.0 if d == 0 else (d - 1) * sum(len(adj[u]) - 1 for u in adj[v])
    return out


def test_cycle_features():
    nf = compute_features(EliminationGraph(cycle_pattern(4)))
    assert nf.nodes == [0, 1, 2, 3]
    assert np.array_equal(nf.x, np.full((4, 2), 2.0))


def test_star_features():
    nf = compute_features(EliminationGraph(star_pattern(3)))
    # center: degree 3, influence 0 (all leaf factors vanish); leaves: (1, 0)
    assert nf.x[0].tolist() == [3.0, 0.0]
    assert nf.x[1].tolist() == [1.0, 0.0]


def test_path_interior_node():
    nf = compute_features(EliminationGraph(path_pattern(4)))
    assert nf.x[1].tolist() == [2.0, 1.0]
    expected = brute_force_influence(path_pattern(4))
    assert [row[1] for row in nf.x] == [expected[v] for v in nf.nodes]


def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(30):
        p = random_pattern(rng, int(rng.integers(1, 15)))
        nf = compute_features(EliminationGraph(p))
        expected = brute_force_influence(p)
        for row, v in enumerate(nf.nodes):
            assert nf.x[row, 0] == len(p.adjacency()[v])
            assert nf.x[row, 1] == expected[v]
        assert np.all(nf.x >= 0)


def test_features_track_elimination():
    g = EliminationGraph(star_pattern(3))
    g.eliminate(0)
    nf = compute_features(g)
    assert nf.nodes == [1, 2, 3]
    # leaves became a triangle
    assert np.array_equal(nf.x[:, 0], np.full(3, 2.0))
    assert nf.x[:, 0].sum() == 2 * g.num_edges


def test_isolated_node_features():
    nf = compute_features(EliminationGraph(SparsityPattern(1, [])))
    assert nf.x.tolist() == [[0.0, 0.0]]


def test_normalize_columns():
    nf = replace(compute_features(EliminationGraph(SparsityPattern(3, []))),
                 x=np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    out = normalize_features(nf)
    assert out.x[:, 0].tolist() == [0.25, 0.5, 1.0]
    # all-zero column passes through the max(1, .) guard unchanged
    assert out.x[:, 1].tolist() == [0.0, 0.0, 0.0]
    assert nf.x[:, 0].tolist() == [1.0, 2.0, 4.0]  # input untouched


def test_normalize_single_isolated_node():
    out = normalize_features(compute_features(EliminationGraph(SparsityPattern(1, []))))
    assert out.x.tolist() == [[0.0, 0.0]]


def test_normalize_bounds():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = random_pattern(rng, int(rng.integers(1, 20)))
        out = normalize_features(compute_features(EliminationGraph(p)))
        assert np.all(out.x >= 0.0) and np.all(out.x <= 1.0)


@st.composite
def elimination_states(draw):
    """The elimination graph of a random pattern after a random prefix of a
    random ordering has been eliminated."""
    p = draw(patterns(max_n=24))
    g = EliminationGraph(p)
    order = draw(st.permutations(range(p.n)))
    for v in order[:draw(st.integers(0, p.n))]:
        g.eliminate(v)
    return g


@settings(max_examples=200, deadline=None)
@given(elimination_states())
def test_snapshot_matches_reference_loops(g):
    nf = compute_features(g)
    assert np.array_equal(nf.x, reference_features(g))
    # an isolated node's influence is +0.0, as the loop leaves it
    assert not np.signbit(nf.x).any()
    for backbone in BACKBONES:
        cfg = NetConfig(backbone=backbone)
        assert np.array_equal(build_propagation(nf.adjacency, cfg),
                              reference_propagation(g, cfg))
