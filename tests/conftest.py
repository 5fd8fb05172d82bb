"""Shared graph constructors for the test suite."""

import numpy as np
from hypothesis import strategies as st

from fillreduce import (EliminationGraph, NetConfig, Ordering, SparsityPattern,
                        backward, compute_features, eliminate_all, forward,
                        normalize_features, value)
from fillreduce.features import NUM_FEATURES


def fill_steps(pattern, ordering) -> list[list[tuple[int, int]]]:
    """The fill edges of each step, by replaying ``EliminationGraph.eliminate``."""
    g = EliminationGraph(pattern)
    return [g.eliminate(v) for v in ordering]


def fill_edges(pattern, ordering) -> set[tuple[int, int]]:
    """All fill edges of an ordering; the per-step sets are disjoint."""
    return set().union(*fill_steps(pattern, ordering))


def path_pattern(n: int) -> SparsityPattern:
    return SparsityPattern(n, [(i, i + 1) for i in range(n - 1)])


def star_pattern(leaves: int) -> SparsityPattern:
    return SparsityPattern(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle_pattern(n: int) -> SparsityPattern:
    return SparsityPattern(n, [(i, (i + 1) % n) for i in range(n)])


def random_pattern(rng: np.random.Generator, n: int, density: float = 0.4) -> SparsityPattern:
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density}
    return SparsityPattern(n, edges)


@st.composite
def patterns(draw, max_n: int = 16) -> SparsityPattern:
    """Patterns of 0..max_n nodes: each pair is an edge with chance one half,
    then a random set of nodes loses its edges, and a random set of nodes
    carries a stored diagonal."""
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    nodes = st.integers(0, n - 1) if n else st.nothing()
    isolated = draw(st.sets(nodes))
    edges = [(i, j) for (i, j), kept in zip(pairs, keep)
             if kept and i not in isolated and j not in isolated]
    return SparsityPattern(n, edges, draw(st.sets(nodes)))


def random_tree(rng: np.random.Generator, n: int) -> SparsityPattern:
    """Uniform random attachment tree on n nodes."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    return SparsityPattern(n, edges)


def evaluate(net, x):
    """Both heads on one state: (log-probs, value, completed tape)."""
    log_probs, tape = forward(net, x)
    return log_probs, value(net, tape), tape


def reference_features(g) -> np.ndarray:
    """Unnormalized features by a per-node loop over the elimination graph."""
    nodes = sorted(g.live)
    x = np.zeros((len(nodes), NUM_FEATURES), dtype=np.float64)
    deg = {v: len(g.adj[v]) for v in nodes}
    for row, v in enumerate(nodes):
        d = deg[v]
        x[row, 0] = d
        if d > 0:
            x[row, 1] = (d - 1) * sum(deg[u] - 1 for u in g.adj[v])
    return x


def reference_propagation(g, config: NetConfig) -> np.ndarray:
    """The normalized operator by a per-entry loop over the elimination graph."""
    nodes = sorted(g.live)
    row = {v: i for i, v in enumerate(nodes)}
    a = np.eye(len(nodes))
    for v in nodes:
        for u in g.adj[v]:
            a[row[v], row[u]] = 1.0
    deg = a.sum(axis=1)
    if config.backbone == "mixhop":
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        return a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    return a / deg[:, None]


def reference_episode(net, pattern, rng, to_returns):
    """One sampled episode and its gradient the way training did it with a
    tape per step: the rollout keeps every step's completed tape, and the
    gradient pass runs ``backward`` on the kept tapes.

    Returns (gradients, values, log-probs, ordering).
    """
    tapes, rows, values = [], [], []

    def choose(g):
        x = normalize_features(compute_features(g))
        log_probs, tape = forward(net, x)
        probs = np.exp(log_probs)
        probs /= probs.sum()
        row = int(rng.choice(len(probs), p=probs))
        values.append(value(net, tape))
        tapes.append(tape)
        rows.append(row)
        return x.nodes[row]

    trace = eliminate_all(pattern, choose)
    returns = to_returns(trace.edges_before, trace.rewards)
    adv = returns - np.asarray(values, dtype=np.float64)
    n = len(tapes)
    grads = net.zero_grads()
    for t, tape in enumerate(tapes):
        d_log_probs = np.zeros_like(tape.log_probs)
        d_log_probs[rows[t]] = -adv[t] / n
        step = backward(net, tape, d_log_probs, -2.0 * adv[t] / n)
        for name, arr in step.items():
            grads[name] += arr
    log_probs = [float(tape.log_probs[row]) for tape, row in zip(tapes, rows)]
    return grads, values, log_probs, Ordering(trace.nodes)
