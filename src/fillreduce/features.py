"""Per-node state features: degree and collective influence.

Collective influence of v is (deg(v) - 1) * sum over neighbors u of
(deg(u) - 1), a cheap centrality that looks one hop out. Both features are
computed on one snapshot of the elimination graph (``symbolic``), so they
change as nodes are removed and cliques form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbolic import EliminationGraph

NUM_FEATURES = 2  # degree, collective influence


@dataclass
class NodeFeatures:
    """Feature matrix x of shape (k, 2); row i describes ``graph.nodes[i]``.

    ``graph`` is the snapshot the features were computed from; the policy
    network's propagation operator is built from it too, in the same row
    order, so a ``NodeFeatures`` is all the actor reads of a state.
    """

    x: np.ndarray
    graph: EliminationGraph


def compute_features(g: EliminationGraph) -> NodeFeatures:
    """Degree and collective influence for every live node of ``g``.

    The neighbor sums are sums of integers below 2^53, so they are exact in
    any order. Isolated nodes get (0, 0): the (deg - 1) factor is clamped at
    zero, so the influence is +0.0, not -1 * 0.0.
    """
    k = len(g.nodes)
    weight = g.degree - 1.0
    # each end of an edge adds the other end's weight
    neighbor_sum = np.bincount(g.edges.ravel(), weights=weight.take(g.edges[::-1]).ravel(),
                               minlength=k)
    x = np.empty((k, NUM_FEATURES))
    x[:, 0] = g.degree
    np.multiply(np.maximum(weight, 0.0, out=weight), neighbor_sum, out=x[:, 1])
    return NodeFeatures(x, g)


def normalize_features(nf: NodeFeatures) -> NodeFeatures:
    """Scale each column by 1 / max(1, column max) into [0, 1]."""
    scale = np.maximum(1.0, nf.x.max(axis=0, initial=0.0))
    return NodeFeatures(nf.x / scale, nf.graph)
