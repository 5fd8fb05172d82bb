"""Baseline elimination orderings: natural, random, and greedy minimum degree."""

from __future__ import annotations

import numpy as np

from .sparsity import Ordering, SparsityPattern
from .symbolic import eliminate_all


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
    index. Quadratic scan per step; fine at desk scale.
    """
    trace = eliminate_all(p, lambda g: min(g.live, key=lambda u: (len(g.adj[u]), u)))
    return Ordering(trace.nodes)
