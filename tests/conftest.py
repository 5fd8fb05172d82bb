"""Shared graph constructors for the test suite."""

import numpy as np

from fillreduce import SparsityPattern


def fill_edges(trace) -> set[tuple[int, int]]:
    """All fill edges of an elimination trace; the per-step sets are disjoint."""
    return set().union(*trace.fill_sets)


def path_pattern(n: int) -> SparsityPattern:
    return SparsityPattern(n, [(i, i + 1) for i in range(n - 1)])


def star_pattern(leaves: int) -> SparsityPattern:
    return SparsityPattern(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle_pattern(n: int) -> SparsityPattern:
    return SparsityPattern(n, [(i, (i + 1) % n) for i in range(n)])


def random_pattern(rng: np.random.Generator, n: int, density: float = 0.4) -> SparsityPattern:
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density}
    return SparsityPattern(n, edges)


def random_tree(rng: np.random.Generator, n: int) -> SparsityPattern:
    """Uniform random attachment tree on n nodes."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    return SparsityPattern(n, edges)
