from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (ReferenceGraph, cycle_pattern, eliminated_graph, environment_edges,
                      path_pattern, pattern_features, patterns, random_pattern,
                      reference_features, reference_propagation, snapshot_edges, star_pattern)
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
    nf = pattern_features(cycle_pattern(4))
    assert nf.graph.nodes == [0, 1, 2, 3]
    assert np.array_equal(nf.x, np.full((4, 2), 2.0))


def test_star_features():
    nf = pattern_features(star_pattern(3))
    # center: degree 3, influence 0 (all leaf factors vanish); leaves: (1, 0)
    assert nf.x[0].tolist() == [3.0, 0.0]
    assert nf.x[1].tolist() == [1.0, 0.0]


def test_path_interior_node():
    nf = pattern_features(path_pattern(4))
    assert nf.x[1].tolist() == [2.0, 1.0]
    expected = brute_force_influence(path_pattern(4))
    assert [row[1] for row in nf.x] == [expected[v] for v in nf.graph.nodes]


def test_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(30):
        p = random_pattern(rng, int(rng.integers(1, 15)))
        nf = pattern_features(p)
        expected = brute_force_influence(p)
        for row, v in enumerate(nf.graph.nodes):
            assert nf.x[row, 0] == len(p.adjacency()[v])
            assert nf.x[row, 1] == expected[v]
        assert np.all(nf.x >= 0)


def test_features_track_elimination():
    g = ReferenceGraph(star_pattern(3))
    g.eliminate(0)
    nf = compute_features(EliminationGraph.of(star_pattern(3)).eliminate(0)[0])
    assert nf.graph.nodes == [1, 2, 3]
    # leaves became a triangle
    assert np.array_equal(nf.x[:, 0], np.full(3, 2.0))
    assert nf.x[:, 0].sum() == 2 * g.num_edges


def test_isolated_node_features():
    nf = pattern_features(SparsityPattern(1, []))
    assert nf.x.tolist() == [[0.0, 0.0]]


def test_normalize_columns():
    nf = replace(pattern_features(SparsityPattern(3, [])),
                 x=np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    out = normalize_features(nf)
    assert out.x[:, 0].tolist() == [0.25, 0.5, 1.0]
    # all-zero column passes through the max(1, .) guard unchanged
    assert out.x[:, 1].tolist() == [0.0, 0.0, 0.0]
    assert nf.x[:, 0].tolist() == [1.0, 2.0, 4.0]  # input untouched


def test_normalize_single_isolated_node():
    out = normalize_features(pattern_features(SparsityPattern(1, [])))
    assert out.x.tolist() == [[0.0, 0.0]]


def test_normalize_bounds():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = random_pattern(rng, int(rng.integers(1, 20)))
        out = normalize_features(pattern_features(p))
        assert np.all(out.x >= 0.0) and np.all(out.x <= 1.0)


@st.composite
def elimination_states(draw):
    """A random pattern after a random prefix of a random ordering has been
    eliminated: the reference graph, and the ``EliminationGraph`` by row."""
    p = draw(patterns(max_n=24))
    order = draw(st.permutations(range(p.n)))[:draw(st.integers(0, p.n))]
    g = ReferenceGraph(p)
    for v in order:
        g.eliminate(v)
    return g, compute_features(eliminated_graph(p, order))


def assert_matches_environment(nf, g):
    """The snapshot holds the reference graph's live nodes and edges, and
    its features and operators equal the per-node and per-entry loops'."""
    k = len(g.live)
    assert nf.graph.nodes == sorted(g.live)
    assert np.array_equal(snapshot_edges(nf.graph, k, g.num_edges),
                          environment_edges(g))
    assert np.array_equal(nf.x, reference_features(g))
    # an isolated node's influence is +0.0, as the loop leaves it
    assert not np.signbit(nf.x).any()
    for backbone in BACKBONES:
        cfg = NetConfig(backbone=backbone)
        assert np.array_equal(build_propagation(nf.graph, cfg),
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
    # every step down to the empty graph: the last steps eliminate a clique;
    # each step's fill equals the reference graph's
    p, order = run
    g = ReferenceGraph(p)
    e = EliminationGraph.of(p)
    assert_matches_environment(compute_features(e), g)
    for v in order:
        row = e.nodes.index(v)
        e, fill = e.eliminate(row)
        assert fill == len(g.eliminate(v))
        assert_matches_environment(compute_features(e), g)
