"""Elimination graphs and symbolic Cholesky factorization.

Eliminating a node removes it and connects its remaining neighbors into a
clique; the newly created edges are the fill of that step. Running all n
steps of an ordering predicts the factor's sparsity pattern without any
numeric work. ``eliminate_all`` is the one loop that does this: a chooser
picks each next node, so fixed orderings, minimum degree and the learned
policy share it. Its trace keeps each step's fill count, which is all the
rewards and the fill-in ratio read; ``EliminationGraph.eliminate`` still
returns the step's fill edges to a caller that wants them. A slow fill-path
checker is included as an independent test oracle: a pair (i, j) fills iff
some path joins i and j whose internal nodes are all eliminated before both
endpoints.
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

    ``adj`` only references live nodes and stays symmetric; ``num_edges``
    tracks the current undirected edge count. Mutation is in place.
    """

    __slots__ = ("live", "adj", "num_edges")

    def __init__(self, pattern: SparsityPattern):
        self.live = set(range(pattern.n))
        self.adj: dict[int, set[int]] = {v: set() for v in range(pattern.n)}
        for i, j in pattern.edges:
            self.adj[i].add(j)
            self.adj[j].add(i)
        self.num_edges = len(pattern.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def eliminate(self, v: int) -> list[tuple[int, int]]:
        """Remove v, complete its neighborhood into a clique, return new edges.

        Fill edges come back in canonical (min, max) form, sorted, each
        exactly once.
        """
        if v not in self.live:
            raise EliminationError(f"node {v} is not live")
        nbrs = sorted(self.adj[v])
        for u in nbrs:
            self.adj[u].discard(v)
        self.num_edges -= len(nbrs)
        del self.adj[v]
        self.live.discard(v)

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
