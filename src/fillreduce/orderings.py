"""Baseline elimination orderings: natural, random, and greedy minimum degree."""

from __future__ import annotations

import heapq

import numpy as np

from .sparsity import Ordering, SparsityPattern


def natural_order(p: SparsityPattern) -> Ordering:
    """Identity permutation."""
    return Ordering(range(p.n))


def random_order(p: SparsityPattern, rng: np.random.Generator) -> Ordering:
    """Uniform random permutation, deterministic per rng state."""
    return Ordering(rng.permutation(p.n).tolist())


def min_degree_order(p: SparsityPattern) -> Ordering:
    """Exact greedy minimum degree on the evolving elimination graph.

    The classical ancestor of AMD, without approximate degrees: each step
    eliminates a live node v of minimum current degree, lowest index on
    ties, and joins each neighbor's set with v's. A heap holds int keys
    ``degree << shift | node``, ordered as (degree, node) are; only v's
    neighbors get new keys, and out-of-date keys are skipped as they surface.
    """
    adj: list[set[int] | None] = p.adjacency()
    shift = max(p.n, 1).bit_length()
    heap = [len(a) << shift | u for u, a in enumerate(adj)]
    heapq.heapify(heap)
    order = []
    while heap:
        key = heapq.heappop(heap)
        v = key & ((1 << shift) - 1)
        nbrs = adj[v]
        if nbrs is None or len(nbrs) != key >> shift:
            continue
        adj[v] = None
        order.append(v)
        for u in nbrs:
            a = adj[u]
            a |= nbrs
            a.discard(u)
            a.discard(v)
            heapq.heappush(heap, len(a) << shift | u)
    return Ordering(order)
