"""Baseline elimination orderings: natural, random, and greedy minimum degree."""

from __future__ import annotations

import heapq
from typing import Iterable

import numpy as np

from .sparsity import Ordering, SparsityPattern
from .symbolic import EliminationGraph, eliminate_all


def natural_order(p: SparsityPattern) -> Ordering:
    """Identity permutation."""
    return Ordering(range(p.n))


def random_order(p: SparsityPattern, rng: np.random.Generator) -> Ordering:
    """Uniform random permutation, deterministic per rng state."""
    return Ordering(rng.permutation(p.n).tolist())


def min_degree_order(p: SparsityPattern) -> Ordering:
    """Exact greedy minimum degree on the evolving elimination graph.

    The classical ancestor of AMD, without approximate degrees: each step
    eliminates a live node of minimum current degree, ties broken by lowest
    index. A heap holds (degree, node) entries; eliminating a node changes
    only its neighbors' degrees, so only they get new entries, and an entry
    whose node is gone or whose degree is out of date is dropped when it
    surfaces.
    """
    heap: list[tuple[int, int]] = []
    changed: Iterable[int] = range(p.n)   # every degree is new at the start

    def choose(g: EliminationGraph) -> int:
        nonlocal changed
        for u in changed:
            heapq.heappush(heap, (len(g.adj[u]), u))
        while True:
            degree, v = heapq.heappop(heap)
            if v in g.adj and len(g.adj[v]) == degree:
                break
        changed = g.adj[v]   # eliminate() drops this set without changing it
        return v

    return Ordering(eliminate_all(p, choose).nodes)
