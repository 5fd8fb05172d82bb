import io
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import (clique_pattern, cycle_pattern, disjoint_union, grid_pattern,
                      path_pattern, patterns, random_pattern, star_pattern)
from fillreduce import (Ordering, SparsityPattern, count_fill, fill_path_oracle,
                        generate_delaunay, generate_training_set, load_ordering,
                        min_degree_order, natural_order, random_order,
                        symbolic_factorize)


def total_fill(pattern, ordering):
    return symbolic_factorize(pattern, ordering).total_fill


def test_natural_order():
    assert list(natural_order(path_pattern(3))) == [0, 1, 2]
    assert list(natural_order(path_pattern(1))) == [0]
    p = cycle_pattern(5)
    assert total_fill(p, natural_order(p)) >= 0  # well-defined on any pattern


def test_random_order_reproducible_and_bijective():
    p = random_pattern(np.random.default_rng(50), 12)
    first = random_order(p, np.random.default_rng(99))
    second = random_order(p, np.random.default_rng(99))
    assert first == second
    assert isinstance(first, Ordering)  # constructor enforces bijectivity
    assert list(random_order(path_pattern(1), np.random.default_rng(0))) == [0]


def test_min_degree_star_peels_leaves():
    star = star_pattern(3)
    order = min_degree_order(star)
    # leaves go first until the center's degree ties with the rest
    assert set(order.perm[:2]) <= {1, 2, 3}
    assert total_fill(star, order) == 0


def test_min_degree_path_is_zero_fill():
    for n in (1, 2, 5, 12):
        p = path_pattern(n)
        assert total_fill(p, min_degree_order(p)) == 0


def test_min_degree_c4_fills_exactly_one():
    c4 = cycle_pattern(4)
    assert total_fill(c4, min_degree_order(c4)) == 1
    # every C4 ordering produces exactly one fill edge, so min degree
    # cannot do better
    assert min(total_fill(c4, perm)
               for perm in itertools.permutations(range(4))) == 1


def test_min_degree_tie_break_is_lowest_index():
    # all nodes of C4 have degree 2, so the first pick must be node 0
    assert min_degree_order(cycle_pattern(4))[0] == 0


def test_all_producers_return_valid_permutations():
    rng = np.random.default_rng(51)
    for _ in range(20):
        p = random_pattern(rng, int(rng.integers(1, 15)))
        for order in (natural_order(p), random_order(p, rng), min_degree_order(p)):
            assert sorted(order) == list(range(p.n))


def test_min_degree_beats_natural_on_most_delaunay_graphs():
    rng = np.random.default_rng(52)
    graphs = generate_training_set(30, 30, 60, rng)
    wins = sum(
        total_fill(p, min_degree_order(p)) <= total_fill(p, natural_order(p))
        for p in graphs)
    assert wins >= 27  # >= 90%


@settings(max_examples=200, deadline=None)
@given(p=patterns(max_n=12))
@example(p=SparsityPattern(0))
@example(p=SparsityPattern(1))
@example(p=path_pattern(7))
@example(p=star_pattern(5))
@example(p=clique_pattern(6))   # every node a twin of the first pivot
@example(p=disjoint_union([clique_pattern(3), SparsityPattern(2), clique_pattern(3),
                           SparsityPattern(1)]))
def test_min_degree_carries_the_fill_it_counted(p):
    order = min_degree_order(p)
    assert order.fill == count_fill(p, order) == len(fill_path_oracle(p, order))


@pytest.mark.parametrize("n", [60, 200, 500, 1000])
def test_min_degree_fill_on_delaunay_graphs(n):
    for seed in range(3):
        p = generate_delaunay(n, np.random.default_rng([n, seed]))
        order = min_degree_order(p)
        assert order.fill == count_fill(p, order)


def test_min_degree_fill_on_grids():
    # a grid's elimination graph is full of twins from the first steps on
    for k in range(5, 55):
        p = grid_pattern(k)
        order = min_degree_order(p)
        assert order.fill == count_fill(p, order), k


def test_orders_that_eliminate_nothing_carry_no_fill():
    p = cycle_pattern(5)
    assert natural_order(p).fill is None
    assert random_order(p, np.random.default_rng(0)).fill is None
    assert load_ordering(io.StringIO("1\n0\n")).fill is None
    assert Ordering(range(5)).fill is None
