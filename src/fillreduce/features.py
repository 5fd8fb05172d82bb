"""Per-node state features: degree and collective influence.

Collective influence of v is (deg(v) - 1) * sum over neighbors u of
(deg(u) - 1), a cheap centrality that looks one hop out. Both features are
computed on the current elimination graph, so they change as nodes are
removed and cliques form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .symbolic import EliminationGraph

NUM_FEATURES = 2  # degree, collective influence


@dataclass(frozen=True)
class LiveAdjacency:
    """One snapshot of the live subgraph with nodes numbered by row, row i
    being the i-th smallest live node id.

    Row i has ``degree[i]`` entries, the neighbour rows
    ``cols[sum(degree[:i]):sum(degree[:i + 1])]``; every undirected edge
    appears once in each direction. Both arrays are int32, so a training
    step can keep its snapshot cheaply.
    """

    degree: np.ndarray
    cols: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """The row of every entry, so entry e is ``rows[e] -> cols[e]``."""
        return np.repeat(np.arange(len(self.degree)), self.degree)


@dataclass
class NodeFeatures:
    """Feature matrix x of shape (len(nodes), 2); row k describes nodes[k].

    ``nodes`` is the sorted live-node list, the same row order used by the
    policy network's propagation operator. ``adjacency`` is the snapshot
    the features were computed from; the operator is built from it too, so
    a ``NodeFeatures`` is all the actor reads of a state.
    """

    nodes: list[int]
    x: np.ndarray
    adjacency: LiveAdjacency


def compute_features(g: EliminationGraph, prev: NodeFeatures | None = None,
                     row: int | None = None) -> NodeFeatures:
    """Degree and collective influence for every live node, and the live
    adjacency snapshot they are computed from.

    Without ``prev`` the snapshot comes from one pass over ``g.adj``. With
    ``prev``, the snapshot of ``g`` just before it eliminated the node in
    ``prev``'s row ``row``, it is patched instead: that row goes, the rows
    above it move down by one, and only the eliminated node's neighbours
    are read again from ``g.adj``, since no other node gained or lost an
    edge. Both give the same arrays, entry for entry.

    The neighbor sums are sums of integers below 2^53, so they are exact in
    any order. Isolated nodes get (0, 0): the (deg - 1) factor is clamped at
    zero, so the influence is +0.0, not -1 * 0.0.
    """
    if prev is None:
        nodes = sorted(g.live)
        k = len(nodes)
        neighbors = [g.adj[v] for v in nodes]
        degree = np.fromiter(map(len, neighbors), dtype=np.int32, count=k)
        flat = np.fromiter(chain.from_iterable(neighbors), dtype=np.intp,
                           count=int(degree.sum()))
        row_of = np.zeros(nodes[-1] + 1 if nodes else 0, dtype=np.int32)
        row_of[nodes] = np.arange(k)
        adjacency = LiveAdjacency(degree, row_of[flat])
    else:
        nodes = prev.nodes[:row] + prev.nodes[row + 1:]
        adjacency = _without_row(g, prev, row)
    k = len(nodes)
    degree = adjacency.degree
    x = np.zeros((k, NUM_FEATURES), dtype=np.float64)
    x[:, 0] = degree
    neighbor_sum = np.bincount(adjacency.rows, weights=degree[adjacency.cols] - 1,
                               minlength=k)
    x[:, 1] = np.maximum(degree - 1, 0) * neighbor_sum
    return NodeFeatures(nodes, x, adjacency)


def _without_row(g: EliminationGraph, prev: NodeFeatures, row: int) -> LiveAdjacency:
    """``prev``'s adjacency after the elimination of the node in its row
    ``row``. The rows of that node's neighbours are read again from
    ``g.adj``, in set order as the full build reads them; every other row
    keeps its entries. Rows above ``row`` then move down by one."""
    old, old_nodes = prev.adjacency, prev.nodes
    ends = [0, *np.add.accumulate(old.degree).tolist()]
    changed = sorted(old.cols[ends[row]:ends[row + 1]].tolist())
    neighbors = [g.adj[old_nodes[i]] for i in changed]
    sizes = list(map(len, neighbors))
    # a live node's row is its rank among the live ids
    fresh = np.searchsorted(np.fromiter(old_nodes, dtype=np.intp, count=len(old_nodes)),
                            np.fromiter(chain.from_iterable(neighbors), dtype=np.intp,
                                        count=sum(sizes)))
    pieces, at, taken = [], 0, 0
    for i, size in sorted([*zip(changed, sizes), (row, 0)]):
        pieces += (old.cols[at:ends[i]], fresh[taken:taken + size])
        at, taken = ends[i + 1], taken + size
    pieces.append(old.cols[at:])
    cols = np.concatenate(pieces, dtype=np.int32)
    cols -= cols > row
    degree = np.concatenate((old.degree[:row], old.degree[row + 1:]))
    degree[[i - (i > row) for i in changed]] = sizes
    return LiveAdjacency(degree, cols)


def normalize_features(nf: NodeFeatures) -> NodeFeatures:
    """Scale each column by 1 / max(1, column max) into [0, 1]."""
    scale = np.maximum(1.0, nf.x.max(axis=0, initial=0.0))
    return NodeFeatures(nf.nodes, nf.x / scale, nf.adjacency)
