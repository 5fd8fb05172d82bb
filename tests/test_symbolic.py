import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (ReferenceGraph, clique_pattern, cycle_pattern, disjoint_union,
                      fill_edges, fill_steps, grid_pattern, live_edges, path_pattern,
                      patterns, random_pattern, random_tree, reference_min_degree, relabeled,
                      star_pattern, tie_heavy_patterns, twin_heavy_patterns)
from fillreduce import (EliminationError, EliminationGraph, Ordering,
                        OrderingError, SparsityPattern, count_fill,
                        fill_path_oracle, generate_delaunay, min_degree_order,
                        symbolic_factorize)


def test_graph_mirrors_pattern():
    g = ReferenceGraph(path_pattern(3))
    assert g.live == {0, 1, 2}
    assert g.adj[1] == {0, 2}
    assert g.num_edges == 2
    e = EliminationGraph.of(path_pattern(3))
    assert e.nodes == [0, 1, 2]
    assert live_edges(e) == [(0, 1), (1, 2)]
    assert e.degree.tolist() == [1, 2, 1]
    assert e.num_edges == 2

    g = ReferenceGraph(cycle_pattern(4))
    assert all(g.degree(v) == 2 for v in range(4))
    assert EliminationGraph.of(cycle_pattern(4)).degree.tolist() == [2, 2, 2, 2]

    g = ReferenceGraph(type(path_pattern(2))(2, []))
    assert g.live == {0, 1}
    assert g.adj == {0: set(), 1: set()}
    e = EliminationGraph.of(type(path_pattern(2))(2, []))
    assert e.nodes == [0, 1] and e.degree.tolist() == [0, 0]
    assert e.edges.shape == (2, 0) and e.num_edges == 0


def test_eliminate_star_center_completes_clique():
    g = ReferenceGraph(star_pattern(3))
    fill = g.eliminate(0)
    assert fill == [(1, 2), (1, 3), (2, 3)]
    # remaining graph is the triangle on the leaves
    assert g.adj == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
    e, fill = EliminationGraph.of(star_pattern(3)).eliminate(0)
    assert fill == 3
    assert e.nodes == [1, 2, 3]
    assert live_edges(e) == [(1, 2), (1, 3), (2, 3)]
    assert e.degree.tolist() == [2, 2, 2]


def test_eliminate_leaf_adds_nothing():
    g = ReferenceGraph(path_pattern(3))
    assert g.eliminate(0) == []
    assert g.num_edges == 1
    e, fill = EliminationGraph.of(path_pattern(3)).eliminate(0)
    assert fill == 0
    assert e.num_edges == 1 and live_edges(e) == [(1, 2)]


def test_eliminate_c4_matches_oracle():
    c4 = cycle_pattern(4)
    expected = fill_path_oracle(c4, [0, 1, 2, 3])
    g = ReferenceGraph(c4)
    assert set(g.eliminate(0)) == expected == {(1, 3)}
    e, fill = EliminationGraph.of(c4).eliminate(0)
    assert fill == len(expected)
    assert live_edges(e) == [(1, 2), (1, 3), (2, 3)]


def test_eliminate_dead_node_rejected():
    g = ReferenceGraph(path_pattern(3))
    g.eliminate(0)
    with pytest.raises(EliminationError):
        g.eliminate(0)


@pytest.mark.parametrize("row", [-1, 3, np.int64(-1), np.int64(3), np.int32(7)])
def test_eliminate_rejects_rows_outside_the_graph(row):
    # a row of -1 would otherwise eliminate the last row
    g = EliminationGraph.of(path_pattern(3))
    with pytest.raises(EliminationError, match=f"row {row} is not one of the 3 live rows"):
        g.eliminate(row)
    g, _ = EliminationGraph.of(SparsityPattern(1)).eliminate(0)
    with pytest.raises(EliminationError, match="0 live rows"):
        g.eliminate(0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_eliminate_leaves_graph_and_pattern_unchanged(data):
    p = data.draw(patterns().filter(lambda p: p.n > 0))
    g = EliminationGraph.of(p)
    for v in data.draw(st.permutations(range(p.n))):
        nodes, degree, edges = list(g.nodes), g.degree.copy(), g.edges.copy()
        pattern_edges = p.edge_array.copy()
        after, _ = g.eliminate(g.nodes.index(v))
        assert g.nodes == nodes
        assert np.array_equal(g.degree, degree) and np.array_equal(g.edges, edges)
        assert np.array_equal(p.edge_array, pattern_edges)
        g = after


def test_clique_invariant_after_eliminate():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_pattern(rng, int(rng.integers(2, 12)))
        g = ReferenceGraph(p)
        v = int(rng.choice(sorted(g.live)))
        nbrs = sorted(g.adj[v])
        g.eliminate(v)
        e, _ = EliminationGraph.of(p).eliminate(v)   # row v is node v
        for a, b in itertools.combinations(nbrs, 2):
            assert b in g.adj[a] and a in g.adj[b]
            assert (a, b) in live_edges(e)


def test_edge_count_conservation():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 14))
        p = random_pattern(rng, n)
        g = ReferenceGraph(p)
        e = EliminationGraph.of(p)
        order = rng.permutation(n)
        for v in order:
            before = g.num_edges
            deg = g.degree(int(v))
            fill = g.eliminate(int(v))
            assert g.num_edges == before - deg + len(fill)
            # spot-check the adjacency symmetry invariant
            assert g.num_edges * 2 == sum(len(s) for s in g.adj.values())
            # the same step by row, against the reference
            row = e.nodes.index(int(v))
            assert e.num_edges == before and e.degree[row] == deg
            e, e_fill = e.eliminate(row)
            assert e_fill == len(fill)
            assert e.num_edges == before - deg + e_fill == g.num_edges
            assert e.num_edges * 2 == e.degree.sum()


def test_factorize_path_natural_order_is_zero_fill():
    trace = symbolic_factorize(path_pattern(8), range(8))
    assert fill_edges(path_pattern(8), range(8)) == set()
    assert len(trace) == 8
    assert trace.total_fill == 0


def test_factorize_star_orders():
    star = star_pattern(4)
    trace = symbolic_factorize(star, [0, 1, 2, 3, 4])
    assert trace.total_fill == 6  # C(4, 2): all leaf pairs
    assert symbolic_factorize(star, [1, 2, 3, 4, 0]).total_fill == 0
    assert fill_edges(star, [1, 2, 3, 4, 0]) == set()


def test_factorize_c4_every_order_fills_exactly_one():
    c4 = cycle_pattern(4)
    for perm in itertools.permutations(range(4)):
        fill = fill_edges(c4, perm)
        assert len(fill) == 1
        assert symbolic_factorize(c4, perm).total_fill == 1
        assert fill == fill_path_oracle(c4, perm)


def test_factorize_outputs_are_consistent():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        p = random_pattern(rng, n)
        perm = [int(v) for v in rng.permutation(n)]
        trace = symbolic_factorize(p, perm)
        steps = fill_steps(p, perm)
        # per-step fill sets are disjoint, canonical, and none pre-exists
        seen = set()
        for step_fill in steps:
            for i, j in step_fill:
                assert i < j
                assert (i, j) not in seen
                assert (i, j) not in p.edges
                seen.add((i, j))
        assert seen == fill_edges(p, perm)
        assert len(seen) == trace.total_fill
        assert trace.nodes == perm
        assert [-len(f) for f in steps] == trace.rewards


def test_fill_edges_connect_later_eliminated_nodes():
    rng = np.random.default_rng(14)
    p = random_pattern(rng, 10)
    perm = [int(v) for v in rng.permutation(10)]
    pos = Ordering(perm).positions()
    for t, step_fill in enumerate(fill_steps(p, perm)):
        for i, j in step_fill:
            assert pos[i] > t and pos[j] > t


def structured_patterns():
    """Trees, forests, grids and Delaunay graphs, plus n = 0 and n = 1."""
    seeds = st.integers(0, 2 ** 32 - 1)
    return st.one_of(
        st.builds(lambda s, n: random_tree(np.random.default_rng(s), n), seeds,
                  st.integers(1, 30)),
        st.builds(lambda s, sizes: disjoint_union(
            random_tree(np.random.default_rng([s, k]), n) for k, n in enumerate(sizes)),
            seeds, st.lists(st.integers(1, 8), max_size=4)),
        st.builds(grid_pattern, st.integers(1, 6), st.integers(1, 6)),
        st.builds(lambda s, n: generate_delaunay(n, np.random.default_rng(s)), seeds,
                  st.integers(3, 30)),
        st.just(SparsityPattern(0)), st.just(SparsityPattern(1)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fill_counts_match_replay_oracle_and_relabeling(data):
    p = data.draw(st.one_of(patterns(), structured_patterns()))
    perm = data.draw(st.permutations(range(p.n)))
    sigma = data.draw(st.permutations(range(p.n)))
    trace = symbolic_factorize(p, perm)
    assert trace.fill == [len(f) for f in fill_steps(p, perm)]
    assert trace.total_fill == len(fill_path_oracle(p, perm)) == count_fill(p, perm)
    # node names carry no meaning: (sigma P, sigma pi) fills like (P, pi)
    relabeled_perm = [sigma[v] for v in perm]
    assert symbolic_factorize(relabeled(p, sigma), relabeled_perm).fill == trace.fill
    assert count_fill(relabeled(p, sigma), relabeled_perm) == trace.total_fill


def test_invalid_orderings_rejected():
    p = path_pattern(3)
    for score in (symbolic_factorize, count_fill):
        with pytest.raises(OrderingError):
            score(p, [0, 0, 1])
        with pytest.raises(EliminationError, match="covers 2 nodes, pattern has 3"):
            score(p, [0, 1])


def test_oracle_trivial_cases():
    assert fill_path_oracle(path_pattern(5), range(5)) == set()
    star = star_pattern(3)
    assert fill_path_oracle(star, [0, 1, 2, 3]) == {(1, 2), (1, 3), (2, 3)}


def test_oracle_equivalence_random():
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        p = random_pattern(rng, n, density=float(rng.uniform(0.1, 0.9)))
        perm = [int(v) for v in rng.permutation(n)]
        fill = fill_edges(p, perm)
        assert fill == fill_path_oracle(p, perm)
        assert symbolic_factorize(p, perm).total_fill == len(fill)


def test_leaf_peeling_trees_are_zero_fill():
    rng = np.random.default_rng(16)
    for _ in range(30):
        n = int(rng.integers(2, 20))
        tree = random_tree(rng, n)
        g = ReferenceGraph(tree)
        e = EliminationGraph.of(tree)
        total = e_total = 0
        while g.live:
            leaves = sorted(v for v in g.live if g.degree(v) <= 1)
            v = int(rng.choice(leaves))
            total += len(g.eliminate(v))
            row = e.nodes.index(v)
            assert e.degree[row] <= 1
            e, fill = e.eliminate(row)
            e_total += fill
        assert total == e_total == 0
        assert e.nodes == [] and e.num_edges == 0


def test_symbolic_factorize_trace_matches_filled_graph():
    # step t removes the edges from its node to later nodes in the filled
    # graph and adds its fill, so the edge counts follow from the fill alone
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(0, 15))
        p = random_pattern(rng, n, density=float(rng.uniform(0.1, 0.8)))
        perm = [int(v) for v in rng.permutation(n)]
        trace = symbolic_factorize(p, perm)
        fill = [len(step) for step in fill_steps(p, perm)]
        pos = {v: t for t, v in enumerate(perm)}
        removed = [0] * n
        for i, j in p.edges | fill_edges(p, perm):
            removed[min(pos[i], pos[j])] += 1
        change = [f - r for f, r in zip(fill, removed)]
        assert trace.nodes == perm and trace.fill == fill
        assert trace.edges_before == list(itertools.accumulate(change, initial=p.num_edges))[:n]
        assert trace.rewards == [-f for f in trace.fill]


# min_degree_order keys its heap by degree << n.bit_length() | node, so the
# examples include n = 0 and 1 and sizes at and just past a power of two
@settings(max_examples=300, deadline=None)
@given(st.one_of(tie_heavy_patterns(), patterns()))
@example(SparsityPattern(0, []))
@example(SparsityPattern(1, []))
@example(path_pattern(2))
@example(SparsityPattern(8, list(itertools.combinations(range(8), 2))))
@example(star_pattern(15))
@example(star_pattern(16))
@example(relabeled(cycle_pattern(16), [(7 * v) % 16 for v in range(16)]))
def test_min_degree_order_matches_full_scan_reference(p):
    assert min_degree_order(p) == reference_min_degree(p)


# min_degree_order eliminates a node's twins in the same pass; here every
# graph starts with twins, and the examples are all twins (whole cliques) or
# two cliques that share a separator
TWO_CLIQUES = SparsityPattern(9, list(itertools.combinations(range(5), 2))     # {0..4}
                              + list(itertools.combinations(range(3, 9), 2)))  # {3..8}


@settings(max_examples=200, deadline=None)
@given(twin_heavy_patterns())
@example(clique_pattern(2))
@example(clique_pattern(3))
@example(clique_pattern(4))
@example(clique_pattern(5))
@example(clique_pattern(6))
@example(clique_pattern(7))
@example(clique_pattern(8))
@example(clique_pattern(9))
@example(TWO_CLIQUES)
@example(relabeled(TWO_CLIQUES, [8, 0, 4, 2, 6, 1, 7, 3, 5]))
def test_min_degree_order_matches_full_scan_reference_with_twins(p):
    assert min_degree_order(p) == reference_min_degree(p)


MESH_SIZES = [*range(1, 13), 16, 20]


@pytest.mark.parametrize("p", [grid_pattern(k) for k in MESH_SIZES]
                         + [generate_delaunay(n, np.random.default_rng(n)) for n in (60, 300)],
                         ids=[f"grid{k}" for k in MESH_SIZES] + ["delaunay60", "delaunay300"])
def test_min_degree_order_matches_full_scan_reference_on_meshes(p):
    assert min_degree_order(p) == reference_min_degree(p)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 20, 200])
def test_count_fill_grid_natural_order(k):
    # eliminating a k x k grid row by row fills (k - 1)^3 edges; at k = 200
    # (n = 40000) that is 7.9M edges, which only the count reaches quickly
    assert count_fill(grid_pattern(k), range(k * k)) == (k - 1) ** 3
