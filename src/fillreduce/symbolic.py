"""Elimination graphs and symbolic Cholesky factorization.

Eliminating a node removes it and connects its remaining neighbors into a
clique; the newly created edges are the fill of that step. Running all n
steps of an ordering predicts the factor's sparsity pattern without any
numeric work. ``eliminate_all`` does this over the sets, a chooser picking
each next node; its trace keeps each step's fill count, and
``EliminationGraph.eliminate`` returns the step's fill edges. Minimum degree
(``orderings``) and the learned rollout (``features``) eliminate in their
own forms of the graph. ``count_fill`` scores a fixed ordering without
eliminating: it counts the factor's column nonzeros from the elimination
tree, in near-linear time and O(n + |E|) memory. A slow fill-path checker is
included as an independent test oracle: a pair (i, j) fills iff some path
joins i and j whose internal nodes are all eliminated before both endpoints.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .sparsity import Ordering, SparsityPattern


class EliminationError(ValueError):
    """Invalid action against the current elimination graph."""


class EliminationGraph:
    """Mutable graph state during elimination.

    ``adj`` holds exactly the live nodes and stays symmetric; ``num_edges``
    tracks the current undirected edge count. Mutation is in place.
    """

    __slots__ = ("adj", "num_edges")

    def __init__(self, pattern: SparsityPattern):
        self.adj: dict[int, set[int]] = {v: set() for v in range(pattern.n)}
        for i, j in pattern.edges:
            self.adj[i].add(j)
            self.adj[j].add(i)
        self.num_edges = len(pattern.edges)

    @property
    def live(self):
        """The live nodes, a view of ``adj``'s keys."""
        return self.adj.keys()

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def eliminate(self, v: int) -> list[tuple[int, int]]:
        """Remove v, complete its neighborhood into a clique, return new edges.

        Fill edges come back in canonical (min, max) form, sorted, each
        exactly once.
        """
        if v not in self.adj:
            raise EliminationError(f"node {v} is not live")
        nbrs = sorted(self.adj[v])
        for u in nbrs:
            self.adj[u].discard(v)
        self.num_edges -= len(nbrs)
        del self.adj[v]

        fill: list[tuple[int, int]] = []
        for a in range(len(nbrs)):
            u = nbrs[a]
            adj_u = self.adj[u]
            for b in range(a + 1, len(nbrs)):
                w = nbrs[b]
                if w not in adj_u:
                    adj_u.add(w)
                    self.adj[w].add(u)
                    fill.append((u, w))
        self.num_edges += len(fill)
        return fill


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


def eliminate_all(pattern: SparsityPattern,
                  choose: Callable[[EliminationGraph], int]) -> EliminationTrace:
    """Eliminate all n nodes, each step the live node ``choose(g)`` returns.

    The chooser sees the graph before the step and must not mutate it.
    """
    g = EliminationGraph(pattern)
    trace = EliminationTrace()
    for _ in range(pattern.n):
        v = choose(g)
        edges_before = g.num_edges
        trace.append(v, len(g.eliminate(v)), edges_before)
    return trace


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
    steps = iter(_as_ordering(ordering, pattern.n))
    return eliminate_all(pattern, lambda g: next(steps))


def count_fill(pattern: SparsityPattern, ordering: Ordering | Sequence[int]) -> int:
    """The fill of an ordering, counted without eliminating anything.

    Equals ``symbolic_factorize(pattern, ordering).total_fill``. Node
    ``ordering[k]`` is relabeled k; the elimination tree comes from Liu's
    algorithm with path compression (SIMAX 1990), and the nonzeros of each
    factor column from the skeleton/leaf method of Gilbert, Ng and Peyton
    (SIMAX 1994), in the form of CSparse's ``cs_counts``. The columns hold
    the diagonal, the edges and the fill once each, so the fill is their sum
    minus n minus |E|. Time is O(|E| log n) at worst, memory O(n + |E|).
    """
    n = pattern.n
    pos = _as_ordering(ordering, n).positions()
    below: list[list[int]] = [[] for _ in range(n)]   # neighbors with a lower label
    above: list[list[int]] = [[] for _ in range(n)]   # neighbors with a higher label
    for i, j in pattern.edges:
        a, b = pos[i], pos[j]
        if a > b:
            a, b = b, a
        below[b].append(a)
        above[a].append(b)

    # elimination tree: parent[i] is the first later node that i's
    # elimination connects to; ancestor is a path-compressed shortcut to it
    parent = [-1] * n
    ancestor = [-1] * n
    for k in range(n):
        for i in below[k]:
            while i != -1 and i < k:
                up = ancestor[i]
                ancestor[i] = k
                if up == -1:
                    parent[i] = k
                i = up

    # postorder: reverse a preorder that visits children last-first
    children: list[list[int]] = [[] for _ in range(n)]
    stack = []
    for j in range(n):
        (children[parent[j]] if parent[j] != -1 else stack).append(j)
    post = []
    while stack:
        j = stack.pop()
        post.append(j)
        stack.extend(children[j])
    post.reverse()

    # first[j]: postorder index of the first descendant of j
    first = [-1] * n
    delta = [0] * n
    for k, j in enumerate(post):
        delta[j] = 1 if first[j] == -1 else 0   # a leaf of the tree
        while j != -1 and first[j] == -1:
            first[j] = k
            j = parent[j]

    # each entry (i, j), i > j, that makes j a leaf of row i's subtree adds
    # one to column j and takes one off the least common ancestor of j and
    # the previous such leaf; subtree sums of delta are then column counts
    ancestor = list(range(n))
    max_first = [-1] * n
    prev_leaf = [-1] * n
    for j in post:
        if parent[j] != -1:
            delta[parent[j]] -= 1
        for i in above[j]:
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
        if parent[j] != -1:
            ancestor[j] = parent[j]
    for j in range(n):   # a parent's label is above its child's
        if parent[j] != -1:
            delta[parent[j]] += delta[j]
    return sum(delta) - n - len(pattern.edges)


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
            if (i, j) in pattern.edges:
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
