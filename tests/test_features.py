from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (cycle_pattern, environment_edges, path_pattern, patched_snapshot,
                      patterns, random_pattern, reference_features, reference_propagation,
                      snapshot_edges, star_pattern)
from fillreduce import (EliminationGraph, NetConfig, SparsityPattern, build_propagation,
                        compute_features, generate_delaunay, normalize_features)
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
    nf = compute_features(cycle_pattern(4))
    assert nf.nodes == [0, 1, 2, 3]
    assert np.array_equal(nf.x, np.full((4, 2), 2.0))


def test_star_features():
    nf = compute_features(star_pattern(3))
    # center: degree 3, influence 0 (all leaf factors vanish); leaves: (1, 0)
    assert nf.x[0].tolist() == [3.0, 0.0]
    assert nf.x[1].tolist() == [1.0, 0.0]


def test_path_interior_node():
    nf = compute_features(path_pattern(4))
    assert nf.x[1].tolist() == [2.0, 1.0]
    expected = brute_force_influence(path_pattern(4))
    assert [row[1] for row in nf.x] == [expected[v] for v in nf.nodes]


def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(30):
        p = random_pattern(rng, int(rng.integers(1, 15)))
        nf = compute_features(p)
        expected = brute_force_influence(p)
        for row, v in enumerate(nf.nodes):
            assert nf.x[row, 0] == len(p.adjacency()[v])
            assert nf.x[row, 1] == expected[v]
        assert np.all(nf.x >= 0)


def test_features_track_elimination():
    g = EliminationGraph(star_pattern(3))
    g.eliminate(0)
    nf = compute_features(compute_features(star_pattern(3)), 0)
    assert nf.nodes == [1, 2, 3]
    # leaves became a triangle
    assert np.array_equal(nf.x[:, 0], np.full(3, 2.0))
    assert nf.x[:, 0].sum() == 2 * g.num_edges


def test_isolated_node_features():
    nf = compute_features(SparsityPattern(1, []))
    assert nf.x.tolist() == [[0.0, 0.0]]


def test_normalize_columns():
    nf = replace(compute_features(SparsityPattern(3, [])),
                 x=np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    out = normalize_features(nf)
    assert out.x[:, 0].tolist() == [0.25, 0.5, 1.0]
    # all-zero column passes through the max(1, .) guard unchanged
    assert out.x[:, 1].tolist() == [0.0, 0.0, 0.0]
    assert nf.x[:, 0].tolist() == [1.0, 2.0, 4.0]  # input untouched


def test_normalize_single_isolated_node():
    out = normalize_features(compute_features(SparsityPattern(1, [])))
    assert out.x.tolist() == [[0.0, 0.0]]


def test_normalize_bounds():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = random_pattern(rng, int(rng.integers(1, 20)))
        out = normalize_features(compute_features(p))
        assert np.all(out.x >= 0.0) and np.all(out.x <= 1.0)


@st.composite
def elimination_states(draw):
    """A random pattern after a random prefix of a random ordering has been
    eliminated: the elimination graph, and the snapshot patched along."""
    p = draw(patterns(max_n=24))
    order = draw(st.permutations(range(p.n)))[:draw(st.integers(0, p.n))]
    g = EliminationGraph(p)
    for v in order:
        g.eliminate(v)
    return g, patched_snapshot(p, order)


def assert_matches_environment(nf, g):
    """The snapshot holds the elimination graph's live nodes and edges, and
    its features and operators equal the per-node and per-entry loops'."""
    k = len(g.live)
    assert nf.nodes == sorted(g.live)
    assert np.array_equal(snapshot_edges(nf.adjacency, k, g.num_edges),
                          environment_edges(g))
    assert np.array_equal(nf.x, reference_features(g))
    # an isolated node's influence is +0.0, as the loop leaves it
    assert not np.signbit(nf.x).any()
    for backbone in BACKBONES:
        cfg = NetConfig(backbone=backbone)
        assert np.array_equal(build_propagation(nf.adjacency, cfg),
                              reference_propagation(g, cfg))


@settings(max_examples=200, deadline=None)
@given(elimination_states())
def test_snapshot_matches_reference_loops(state):
    g, nf = state
    assert_matches_environment(nf, g)


@st.composite
def elimination_runs(draw):
    """A pattern and an order of all its nodes: random patterns (isolated
    nodes, n = 0 and n = 1 included) or Delaunay graphs."""
    if draw(st.booleans()):
        p = draw(patterns(max_n=20))
    else:
        p = generate_delaunay(draw(st.integers(3, 60)),
                              np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    return p, draw(st.permutations(range(p.n)))


@settings(max_examples=150, deadline=None)
@example((SparsityPattern(0), []))
@example((SparsityPattern(1), [0]))
@example((SparsityPattern(3, [(0, 1)]), [2, 0, 1]))
@given(elimination_runs())
def test_patched_snapshot_matches_elimination_graph(run):
    # every step down to the empty graph: the last steps eliminate a clique
    p, order = run
    g = EliminationGraph(p)
    nf = compute_features(p)
    assert_matches_environment(nf, g)
    for v in order:
        row = nf.nodes.index(v)
        g.eliminate(v)
        nf = compute_features(nf, row)
        assert_matches_environment(nf, g)
