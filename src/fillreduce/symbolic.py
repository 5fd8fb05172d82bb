"""The elimination environment and symbolic Cholesky factorization.

Eliminating a node removes it and connects its remaining neighbors into a
clique; the newly created edges are the fill of that step. Running all n
steps of an ordering predicts the factor's sparsity pattern without any
numeric work. ``EliminationGraph``, an edge-list snapshot of the live graph
whose ``eliminate`` returns the next snapshot and the step's fill count, is
the one environment: ``symbolic_factorize`` drives it through a fixed
ordering and the learned rollout (``trainer``) through the policy's choices.
Minimum degree (``orderings``) keeps its own, faster neighbour sets.
``count_fill`` scores a fixed ordering without eliminating: it counts the
factor's column nonzeros from the elimination tree, in near-linear time and
O(n + |E|) memory. A slow fill-path checker is an independent test oracle: a
pair (i, j) fills iff some path joins i and j whose internal nodes are all
eliminated before both endpoints.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .sparsity import Ordering, SparsityPattern


class EliminationError(ValueError):
    """Invalid action against the current elimination graph."""


@dataclass(frozen=True, eq=False)
class EliminationGraph:
    """The live graph at one step of an elimination, row i being the live
    node ``nodes[i]`` (sorted ids). ``edges`` is an int32 ``(2, m)`` array
    holding each live edge once, as the column ``(i, j)`` with ``i < j``, in
    no particular order; ``degree`` is the int32 count of each row's edges.
    ``eliminate`` returns the next graph and leaves this one as it is."""

    nodes: list[int]
    degree: np.ndarray
    edges: np.ndarray

    @classmethod
    def of(cls, pattern: SparsityPattern) -> EliminationGraph:
        """Every node of the pattern live, row i being node i."""
        edges = pattern.edge_array   # (i, j) with i < j
        return cls(list(range(pattern.n)),
                   np.bincount(edges.ravel(), minlength=pattern.n).astype(np.int32), edges)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[1]

    def eliminate(self, row: int) -> tuple[EliminationGraph, int]:
        """The graph after eliminating the node at ``row``, and the step's fill.

        The edges inside the node's closed neighbourhood go, the neighbours'
        clique comes in and the rows above ``row`` move down by one: d + e
        edges out and C(d, 2) in, so the fill C(d, 2) - e is m' - m + d."""
        k = len(self.nodes)
        if not 0 <= row < k:
            raise EliminationError(f"row {row} is not one of the {k} live rows")
        neighbors = self.edges[::-1][self.edges == row]   # the other end of each edge at row
        closed = np.zeros(k, dtype=bool)
        closed[neighbors] = closed[row] = True
        inside = closed.take(self.edges)
        clique = neighbors.take(np.nonzero(neighbors[:, None] < neighbors))
        edges = np.concatenate((self.edges.compress(~(inside[0] & inside[1]), axis=1), clique),
                               axis=1)
        edges -= edges > row
        degree = np.bincount(edges.ravel(), minlength=k - 1).astype(np.int32)
        after = EliminationGraph(self.nodes[:row] + self.nodes[row + 1:], degree, edges)
        return after, after.num_edges - self.num_edges + int(self.degree[row])


@dataclass
class EliminationTrace:
    """Per-step records of one full elimination episode.

    All lists share length n: step t eliminated ``nodes[t]`` from a graph
    of ``edges_before[t]`` edges and created ``fill[t]`` new ones.
    """

    nodes: list[int] = field(default_factory=list)
    fill: list[int] = field(default_factory=list)
    edges_before: list[int] = field(default_factory=list)

    def append(self, node: int, fill: int, edges_before: int) -> None:
        self.nodes.append(node)
        self.fill.append(fill)
        self.edges_before.append(edges_before)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def rewards(self) -> list[int]:
        """Per-step reward: the negative fill count."""
        return [-f for f in self.fill]

    @property
    def total_fill(self) -> int:
        return sum(self.fill)


def _as_ordering(ordering: Ordering | Sequence[int], n: int) -> Ordering:
    if not isinstance(ordering, Ordering):
        ordering = Ordering(ordering)
    if len(ordering) != n:
        raise EliminationError(
            f"ordering covers {len(ordering)} nodes, pattern has {n}")
    return ordering


def symbolic_factorize(pattern: SparsityPattern,
                       ordering: Ordering | Sequence[int]) -> EliminationTrace:
    """Eliminate every node in the given order and return the trace.

    No edge is created twice, so ``trace.total_fill`` is the fill of the
    factor L + L^T off the diagonal.
    """
    g = EliminationGraph.of(pattern)
    trace = EliminationTrace()
    for v in _as_ordering(ordering, pattern.n):
        m = g.num_edges
        g, fill = g.eliminate(bisect_left(g.nodes, v))
        trace.append(v, fill, m)
    return trace


def count_fill(pattern: SparsityPattern, ordering: Ordering | Sequence[int]) -> int:
    """The fill of an ordering, counted without eliminating anything.

    Equals ``symbolic_factorize(pattern, ordering).total_fill``. Node
    ``ordering[k]`` is relabeled k; the elimination tree comes from Liu's
    algorithm with path compression (SIMAX 1990), and the nonzeros of each
    factor column from the skeleton/leaf method of Gilbert, Ng and Peyton
    (SIMAX 1994), in the form of CSparse's ``cs_counts``. The columns hold
    the diagonal, the edges and the fill once each, so the fill is their sum
    minus n minus |E|. Time is O(|E| log n) at worst, memory O(n + |E|).
    Both passes take the edges in an order numpy sorts them into, so no
    list is built per node.
    """
    n = pattern.n
    pos = np.empty(n, dtype=np.intp)
    pos[np.fromiter(_as_ordering(ordering, n), np.intp, n)] = np.arange(n)
    a, b = pos.take(pattern.edge_array)
    low, high = np.minimum(a, b), np.maximum(a, b)

    # elimination tree: parent[i] is the first later node that i's
    # elimination connects to; ancestor is a path-compressed shortcut to it.
    # Each edge (i, k), i < k, is taken in order of k
    parent = [-1] * n
    ancestor = [-1] * n
    by_high = np.argsort(high)
    for k, i in zip(high[by_high].tolist(), low[by_high].tolist()):
        while i != -1 and i < k:
            up = ancestor[i]
            ancestor[i] = k
            if up == -1:
                parent[i] = k
            i = up

    # postorder: a parent's label is above its children's, so subtree sizes
    # add up in label order, and in reverse label order each subtree takes
    # its block of postorder slots from its parent's. The roots hang off a
    # virtual node at index -1 (n) of every per-node list. first[j] is the
    # slot of j's first descendant; delta starts at 1 on a leaf and at minus
    # the number of children elsewhere
    size, first, free, delta = [1] * (n + 1), [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for j in range(n):
        size[parent[j]] += size[j]
        delta[parent[j]] -= 1
    post, slot = [0] * n, [0] * n
    for j in reversed(range(n)):
        first[j] = free[j] = free[parent[j]]
        free[parent[j]] += size[j]
        delta[j] += size[j] == 1
        slot[j] = first[j] + size[j] - 1
        post[slot[j]] = j

    # each entry (i, j), i > j, that makes j a leaf of row i's subtree adds
    # one to column j and takes one off the least common ancestor of j and
    # the previous such leaf; subtree sums of delta are then column counts.
    # The entries go in postorder of j, and a column links to its parent
    # once all its entries are done
    ancestor = list(range(n)) + [-1]
    max_first = [-1] * n
    prev_leaf = [-1] * n
    done = 0
    by_slot = np.argsort(np.take(slot, low))
    for j, i in zip(low[by_slot].tolist(), high[by_slot].tolist()):
        while post[done] != j:
            ancestor[post[done]] = parent[post[done]]
            done += 1
        if first[j] <= max_first[i]:
            continue
        max_first[i] = first[j]
        prev, prev_leaf[i] = prev_leaf[i], j
        delta[j] += 1
        if prev != -1:
            q = prev
            while q != ancestor[q]:
                q = ancestor[q]
            while prev != q:   # compress the path just walked
                ancestor[prev], prev = q, ancestor[prev]
            delta[q] -= 1
    for j in range(n):   # a parent's label is above its child's
        delta[parent[j]] += delta[j]
    return sum(delta[:n]) - n - pattern.num_edges


def fill_path_oracle(
    pattern: SparsityPattern, ordering: Ordering | Sequence[int]
) -> set[tuple[int, int]]:
    """Brute-force fill prediction by path search; intended for small n.

    For every non-edge (i, j), searches for a path between them through
    intermediate nodes eliminated strictly before both endpoints. Quadratic
    in n times a BFS each, so use in tests rather than hot paths.
    """
    ordering = _as_ordering(ordering, pattern.n)
    pos = ordering.positions()
    adj = pattern.adjacency()
    fill: set[tuple[int, int]] = set()
    for i in range(pattern.n):
        for j in range(i + 1, pattern.n):
            if j in adj[i]:
                continue
            bound = min(pos[i], pos[j])
            # BFS from i to j through nodes with pos < bound
            queue = deque([i])
            visited = {i}
            found = False
            while queue and not found:
                u = queue.popleft()
                for w in adj[u]:
                    if w == j:
                        found = True
                        break
                    if w not in visited and pos[w] < bound:
                        visited.add(w)
                        queue.append(w)
            if found:
                fill.add((i, j))
    return fill
