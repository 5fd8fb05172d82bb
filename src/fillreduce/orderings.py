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
    eliminates a live node v of minimum current degree d, lowest index on
    ties, and joins each neighbor's set with v's. A heap holds int keys
    ``degree << shift | node``, ordered as (degree, node) are; only v's
    neighbors get new keys, and out-of-date keys are skipped as they surface.

    v's twins go out in the same pass (mass elimination, George and Liu,
    SIAM Review 1989): the neighbors left with d - 1 neighbors after the
    join, whose closed neighborhoods equal v's. Every other neighbor is left
    with at least d and every other node keeps at least d, so the twins are
    exactly the nodes of minimum degree. Their neighborhoods are cliques, so
    eliminating one adds no fill and takes one off the degree of every
    remaining twin and other neighbor alike. One-by-one elimination would
    therefore pick them next, in ascending order, with nothing between
    them, and the order stays exact.

    A node's degree when it is eliminated is the off-diagonal count of its
    factor column, and the columns hold each edge and each fill edge once,
    so the fill is the sum of those degrees minus |E|; the ordering carries
    it. A pivot of degree d with t twins adds d + t(d - 1) - t(t - 1)/2.
    """
    adj: list[set[int] | None] = p.adjacency()
    shift = max(p.n, 1).bit_length()
    heap = [len(a) << shift | u for u, a in enumerate(adj)]
    heapq.heapify(heap)
    order = []
    columns = 0
    while heap:
        key = heapq.heappop(heap)
        v = key & ((1 << shift) - 1)
        nbrs = adj[v]
        if nbrs is None or len(nbrs) != key >> shift:
            continue
        adj[v] = None
        order.append(v)
        twin_degree = len(nbrs) - 1
        twins = set()
        for u in nbrs:
            a = adj[u]
            a |= nbrs
            a.discard(u)
            a.discard(v)
            if len(a) == twin_degree:
                twins.add(u)
        t = len(twins)
        columns += len(nbrs) + t * twin_degree - t * (t - 1) // 2
        if twins:
            order.extend(sorted(twins))
            nbrs -= twins
            for u in twins:
                adj[u] = None
            for u in nbrs:
                adj[u] -= twins
        for u in nbrs:
            heapq.heappush(heap, len(adj[u]) << shift | u)
    return Ordering(order, fill=columns - p.num_edges)
