import io
import itertools

import numpy as np
import pytest

from conftest import cycle_pattern, path_pattern, random_pattern, random_tree, star_pattern
from fillreduce import (EliminationError, EliminationGraph, Ordering,
                        OrderingError, eliminate_all, fill_path_oracle,
                        init_env, min_degree_order, symbolic_factorize)


def test_init_env_mirrors_pattern():
    g = init_env(path_pattern(3))
    assert g.live == {0, 1, 2}
    assert g.adj[1] == {0, 2}
    assert g.num_edges == 2

    g = init_env(cycle_pattern(4))
    assert all(g.degree(v) == 2 for v in range(4))

    g = init_env(type(path_pattern(2))(2, []))
    assert g.live == {0, 1}
    assert g.adj == {0: set(), 1: set()}


def test_eliminate_star_center_completes_clique():
    g = init_env(star_pattern(3))
    fill = g.eliminate(0)
    assert fill == [(1, 2), (1, 3), (2, 3)]
    # remaining graph is the triangle on the leaves
    assert g.adj == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}


def test_eliminate_leaf_adds_nothing():
    g = init_env(path_pattern(3))
    assert g.eliminate(0) == []
    assert g.num_edges == 1


def test_eliminate_c4_matches_oracle():
    c4 = cycle_pattern(4)
    expected = fill_path_oracle(c4, [0, 1, 2, 3])
    g = init_env(c4)
    assert set(g.eliminate(0)) == expected == {(1, 3)}


def test_eliminate_dead_node_rejected():
    g = init_env(path_pattern(3))
    g.eliminate(0)
    with pytest.raises(EliminationError):
        g.eliminate(0)


def test_clique_invariant_after_eliminate():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_pattern(rng, int(rng.integers(2, 12)))
        g = init_env(p)
        v = int(rng.choice(sorted(g.live)))
        nbrs = sorted(g.adj[v])
        g.eliminate(v)
        for a, b in itertools.combinations(nbrs, 2):
            assert b in g.adj[a] and a in g.adj[b]


def test_edge_count_conservation():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 14))
        p = random_pattern(rng, n)
        g = init_env(p)
        order = rng.permutation(n)
        for v in order:
            before = g.num_edges
            deg = g.degree(int(v))
            fill = g.eliminate(int(v))
            assert g.num_edges == before - deg + len(fill)
            # spot-check the adjacency symmetry invariant
            assert g.num_edges * 2 == sum(len(s) for s in g.adj.values())


def test_factorize_path_natural_order_is_zero_fill():
    fill, filled, trace = symbolic_factorize(path_pattern(8), range(8))
    assert fill == set()
    assert filled.edges == path_pattern(8).edges
    assert len(trace) == 8
    assert trace.total_fill == 0


def test_factorize_star_orders():
    star = star_pattern(4)
    fill, _, _ = symbolic_factorize(star, [0, 1, 2, 3, 4])
    assert len(fill) == 6  # C(4, 2): all leaf pairs
    fill, _, _ = symbolic_factorize(star, [1, 2, 3, 4, 0])
    assert fill == set()


def test_factorize_c4_every_order_fills_exactly_one():
    c4 = cycle_pattern(4)
    for perm in itertools.permutations(range(4)):
        fill, filled, trace = symbolic_factorize(c4, perm)
        assert len(fill) == 1
        assert fill == fill_path_oracle(c4, perm)
        assert filled.edges == c4.edges | fill


def test_factorize_outputs_are_consistent():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        p = random_pattern(rng, n)
        perm = [int(v) for v in rng.permutation(n)]
        fill, filled, trace = symbolic_factorize(p, perm)
        # monotone completion and fill decomposition
        assert filled.edges >= p.edges
        assert filled.edges == p.edges | fill
        # per-step fill sets are disjoint, canonical, and none pre-exists
        seen = set()
        for step_fill in trace.fill_sets:
            for i, j in step_fill:
                assert i < j
                assert (i, j) not in seen
                assert (i, j) not in p.edges
                seen.add((i, j))
        assert seen == fill
        assert trace.nodes == perm
        assert [-len(f) for f in trace.fill_sets] == trace.rewards


def test_fill_edges_connect_later_eliminated_nodes():
    rng = np.random.default_rng(14)
    p = random_pattern(rng, 10)
    perm = [int(v) for v in rng.permutation(10)]
    pos = Ordering(perm).positions()
    _, _, trace = symbolic_factorize(p, perm)
    for t, step_fill in enumerate(trace.fill_sets):
        for i, j in step_fill:
            assert pos[i] > t and pos[j] > t


def test_invalid_orderings_rejected():
    p = path_pattern(3)
    with pytest.raises(OrderingError):
        symbolic_factorize(p, [0, 0, 1])
    with pytest.raises(EliminationError):
        symbolic_factorize(p, [0, 1])


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
        fill, _, _ = symbolic_factorize(p, perm)
        assert fill == fill_path_oracle(p, perm)


def test_leaf_peeling_trees_are_zero_fill():
    rng = np.random.default_rng(16)
    for _ in range(30):
        n = int(rng.integers(2, 20))
        tree = random_tree(rng, n)
        g = init_env(tree)
        total = 0
        while g.live:
            leaves = sorted(v for v in g.live if g.degree(v) <= 1)
            v = int(rng.choice(leaves))
            total += len(g.eliminate(v))
        assert total == 0


def test_trace_dump_format():
    _, _, trace = symbolic_factorize(star_pattern(3), [0, 1, 2, 3])
    buf = io.StringIO()
    trace.write(buf)
    assert buf.getvalue() == "0,0,3,3\n1,1,0,3\n2,2,0,1\n3,3,0,0\n"


def test_eliminate_all_matches_symbolic_factorize():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(0, 15))
        p = random_pattern(rng, n, density=float(rng.uniform(0.1, 0.8)))
        perm = [int(v) for v in rng.permutation(n)]
        steps = iter(perm)
        trace = eliminate_all(p, lambda g: next(steps))
        _, _, expected = symbolic_factorize(p, perm)
        assert trace == expected
        assert trace.rewards == [-len(f) for f in trace.fill_sets]


def test_eliminate_all_min_degree_chooser_matches_min_degree_order():
    rng = np.random.default_rng(18)
    for _ in range(40):
        n = int(rng.integers(0, 20))
        p = random_pattern(rng, n, density=float(rng.uniform(0.1, 0.6)))
        trace = eliminate_all(p, lambda g: min(g.live, key=lambda u: (g.degree(u), u)))
        assert Ordering(trace.nodes) == min_degree_order(p)
