"""Per-node state features: degree and collective influence.

Collective influence of v is (deg(v) - 1) * sum over neighbors u of
(deg(u) - 1), a cheap centrality that looks one hop out. Both features are
computed on the current elimination graph, so they change as nodes are
removed and cliques form. The first snapshot of an episode is read from the
pattern; each later one applies the elimination to its own edge list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparsity import SparsityPattern

NUM_FEATURES = 2  # degree, collective influence


@dataclass(frozen=True)
class LiveAdjacency:
    """One snapshot of the live subgraph with nodes numbered by row, row i
    being the i-th smallest live node id.

    ``edges`` is an int32 ``(2, m)`` array holding each live edge once, as
    the column ``(i, j)`` with ``i < j``, in no particular order; ``degree``
    is the int32 count of each row's edges.
    """

    degree: np.ndarray
    edges: np.ndarray


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


def compute_features(source: SparsityPattern | NodeFeatures,
                     row: int | None = None) -> NodeFeatures:
    """Degree and collective influence for every live node, and the live
    adjacency snapshot they are computed from.

    From a pattern, every node is live and the snapshot holds its edges.
    From a snapshot and one of its rows, the elimination of that row's node
    is applied to the snapshot's edges: every edge inside the node's closed
    neighbourhood goes, the neighbours' clique comes in, and the rows above
    ``row`` move down by one.

    The neighbor sums are sums of integers below 2^53, so they are exact in
    any order. Isolated nodes get (0, 0): the (deg - 1) factor is clamped at
    zero, so the influence is +0.0, not -1 * 0.0.
    """
    if isinstance(source, SparsityPattern):
        nodes = list(range(source.n))
        edges = source.edge_array   # (i, j) with i < j, and row i is node i
    else:
        nodes = source.nodes[:row] + source.nodes[row + 1:]
        edges = source.adjacency.edges
        neighbors = edges[::-1][edges == row]      # the other end of each edge at row
        closed = np.zeros(len(source.nodes), dtype=bool)
        closed[neighbors] = closed[row] = True
        inside = closed.take(edges)
        clique = neighbors.take(np.nonzero(neighbors[:, None] < neighbors))
        edges = np.concatenate((edges.compress(~(inside[0] & inside[1]), axis=1), clique),
                               axis=1)
        edges -= edges > row
    k = len(nodes)
    ends = edges.ravel()
    degree = np.bincount(ends, minlength=k).astype(np.int32)
    weight = degree - 1.0
    # each end of an edge adds the other end's weight
    neighbor_sum = np.bincount(ends, weights=weight.take(edges[::-1]).ravel(), minlength=k)
    x = np.empty((k, NUM_FEATURES))
    x[:, 0] = degree
    np.multiply(np.maximum(weight, 0.0, out=weight), neighbor_sum, out=x[:, 1])
    return NodeFeatures(nodes, x, LiveAdjacency(degree, edges))


def normalize_features(nf: NodeFeatures) -> NodeFeatures:
    """Scale each column by 1 / max(1, column max) into [0, 1]."""
    scale = np.maximum(1.0, nf.x.max(axis=0, initial=0.0))
    return NodeFeatures(nf.nodes, nf.x / scale, nf.adjacency)
