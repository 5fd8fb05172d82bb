"""Shared graph constructors and reference implementations for the test suite."""

import itertools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from fillreduce import (EliminationGraph, NetConfig, Ordering, SparsityPattern,
                        backward, compute_features, eliminate_all, forward,
                        normalize_features, policy_net, symbolic_factorize, value)
from fillreduce.datagen import _SUPER, DegenerateGeometry, _circumcircle
from fillreduce.features import NUM_FEATURES


def fill_steps(pattern, ordering) -> list[list[tuple[int, int]]]:
    """The fill edges of each step, by replaying ``EliminationGraph.eliminate``."""
    g = EliminationGraph(pattern)
    return [g.eliminate(v) for v in ordering]


def fill_edges(pattern, ordering) -> set[tuple[int, int]]:
    """All fill edges of an ordering; the per-step sets are disjoint."""
    return set().union(*fill_steps(pattern, ordering))


def reference_min_degree(pattern) -> Ordering:
    """Minimum degree by a full scan of the live nodes at every step,
    lowest index on ties."""
    trace = eliminate_all(pattern, lambda g: min(g.live, key=lambda u: (g.degree(u), u)))
    return Ordering(trace.nodes)


def in_circle_det(a, b, c, p) -> float:
    """In-circle determinant: positive iff p lies strictly inside the
    circumcircle of triangle (a, b, c), after normalizing to CCW orientation."""
    orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if orient < 0:
        b, c = c, b
    ax, ay = a[0] - p[0], a[1] - p[1]
    bx, by = b[0] - p[0], b[1] - p[1]
    cx, cy = c[0] - p[0], c[1] - p[1]
    return ((ax * ax + ay * ay) * (bx * cy - by * cx)
            - (bx * bx + by * by) * (ax * cy - ay * cx)
            + (cx * cx + cy * cy) * (ax * by - ay * bx))


def reference_triangulate(points) -> list[tuple[int, int, int]]:
    """Bowyer-Watson with one scalar in-circle test per live triangle and
    Python lists, the loop that ``datagen._triangulate`` vectorizes."""
    n = len(points)
    coords = [tuple(p) for p in points] + list(_SUPER)
    tris: list[tuple[int, int, int]] = [(n, n + 1, n + 2)]
    circles = [_circumcircle(*_SUPER)]
    for idx in range(n):
        px, py = coords[idx]
        bad = []
        for t, (ux, uy, r2) in enumerate(circles):
            d2 = (px - ux) ** 2 + (py - uy) ** 2
            if d2 == r2:
                raise DegenerateGeometry("exact in-circle tie")
            if d2 < r2:
                bad.append(t)
        # cavity boundary: edges used by exactly one bad triangle
        edge_count: dict[tuple[int, int], int] = {}
        for t in bad:
            u, v, w = tris[t]
            for e in ((u, v), (v, w), (w, u)):
                key = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
                edge_count[key] = edge_count.get(key, 0) + 1
        bad_set = set(bad)
        tris = [t for i, t in enumerate(tris) if i not in bad_set]
        circles = [c for i, c in enumerate(circles) if i not in bad_set]
        for (u, w), count in edge_count.items():
            if count == 1:
                tris.append((u, w, idx))
                circles.append(_circumcircle(coords[u], coords[w], coords[idx]))
    return [t for t in tris if max(t) < n]


def path_pattern(n: int) -> SparsityPattern:
    return SparsityPattern(n, [(i, i + 1) for i in range(n - 1)])


def star_pattern(leaves: int) -> SparsityPattern:
    return SparsityPattern(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle_pattern(n: int) -> SparsityPattern:
    return SparsityPattern(n, [(i, (i + 1) % n) for i in range(n)])


def grid_pattern(rows: int, cols: int | None = None) -> SparsityPattern:
    """5-point grid, numbered row by row; square unless ``cols`` is given."""
    cols = rows if cols is None else cols
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return SparsityPattern(rows * cols, right + down)


def clique_pattern(n: int) -> SparsityPattern:
    return SparsityPattern(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def disjoint_union(parts) -> SparsityPattern:
    """The parts side by side, each numbered after the ones before it."""
    edges, offset = [], 0
    for p in parts:
        edges += [(i + offset, j + offset) for i, j in p.edges]
        offset += p.n
    return SparsityPattern(offset, edges)


def relabeled(p: SparsityPattern, sigma) -> SparsityPattern:
    """The pattern with node v renamed sigma[v]."""
    return SparsityPattern(p.n, [(sigma[i], sigma[j]) for i, j in p.edges])


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


@st.composite
def twin_heavy_patterns(draw) -> SparsityPattern:
    """A ``patterns()`` graph with every node blown up into a clique of 1-3
    copies, each copy joined to all copies of the node's neighbors, randomly
    renumbered: every node with two or three copies starts with twins."""
    base = draw(patterns(max_n=12))
    sizes = draw(st.lists(st.integers(1, 3), min_size=base.n, max_size=base.n))
    starts = list(itertools.accumulate(sizes, initial=0))
    copies = [range(starts[v], starts[v + 1]) for v in range(base.n)]
    edges = [e for c in copies for e in itertools.combinations(c, 2)]
    edges += [(i, j) for u, v in base.edges for i in copies[u] for j in copies[v]]
    p = SparsityPattern(starts[-1], edges)
    return relabeled(p, draw(st.permutations(range(p.n))))


def random_tree(rng: np.random.Generator, n: int) -> SparsityPattern:
    """Uniform random attachment tree on n nodes."""
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    return SparsityPattern(n, edges)


@st.composite
def tie_heavy_patterns(draw) -> SparsityPattern:
    """Disjoint unions of grids, stars, cliques, paths, cycles and isolated
    nodes, randomly renumbered: many nodes share a degree at every step."""
    part = st.one_of(
        st.builds(grid_pattern, st.integers(1, 5), st.integers(1, 5)),
        st.builds(star_pattern, st.integers(1, 6)),
        st.builds(clique_pattern, st.integers(1, 5)),
        st.builds(path_pattern, st.integers(1, 6)),
        st.builds(cycle_pattern, st.integers(3, 7)),
        st.just(SparsityPattern(1)))
    p = disjoint_union(draw(st.lists(part, max_size=4)))
    return relabeled(p, draw(st.permutations(range(p.n))))


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


def snapshot_edges(adj, num_nodes: int, num_edges: int) -> np.ndarray:
    """Assert a ``LiveAdjacency``'s invariants and return its edges sorted,
    so two snapshots compare as sets of edges: int32 arrays, each edge once
    as a column (i, j) with i < j, and ``degree`` counting each row's edges."""
    assert adj.degree.dtype == adj.edges.dtype == np.int32
    assert adj.degree.shape == (num_nodes,) and adj.edges.shape == (2, num_edges)
    assert (adj.edges[0] < adj.edges[1]).all()
    assert np.array_equal(adj.degree, np.bincount(adj.edges.ravel(), minlength=num_nodes))
    edges = adj.edges[:, np.lexsort(adj.edges[::-1])]
    assert not (edges[:, 1:] == edges[:, :-1]).all(axis=0).any()    # no repeated edge
    return edges


def environment_edges(g) -> np.ndarray:
    """The elimination graph's live edges as a snapshot numbers them, row i
    being the i-th smallest live node: int32 columns (i, j), i < j, sorted."""
    row = {v: i for i, v in enumerate(sorted(g.live))}
    edges = sorted((row[v], row[u]) for v in g.live for u in g.adj[v] if v < u)
    return np.array(edges, dtype=np.int32).reshape(-1, 2).T


def patched_snapshot(pattern, nodes):
    """The snapshot after eliminating ``nodes`` in turn, by a chain of patches
    from the pattern's snapshot."""
    nf = compute_features(pattern)
    for v in nodes:
        nf = compute_features(nf, nf.nodes.index(v))
    return nf


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
    tapes, rows, values, nodes = [], [], [], []
    raw = compute_features(pattern)
    for _ in range(pattern.n):
        x = normalize_features(raw)
        log_probs, tape = forward(net, x)
        probs = np.exp(log_probs)
        probs /= probs.sum()
        row = int(rng.choice(len(probs), p=probs))
        values.append(value(net, tape))
        tapes.append(tape)
        rows.append(row)
        nodes.append(raw.nodes[row])
        raw = compute_features(raw, row)
    ordering = Ordering(nodes)
    trace = symbolic_factorize(pattern, ordering)
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
    return grads, values, log_probs, ordering


@dataclass
class ReferenceTowerTape:
    first: list[np.ndarray]               # layer 0's hop inputs P^j X
    inputs: list[np.ndarray | None]       # each layer's input H_l; None for layer 0
    activations: list[list[np.ndarray]]   # tanh outputs per hop
    final: np.ndarray                     # trunk output H_L


def reference_tower_forward(net, tower, prop, first):
    """One tower hop by hop: a product, a bias add and a tanh per hop, each
    parameter looked up by name, and the hops concatenated into the next
    layer's input. Hop j of layer 0 reads P^j X; hop j of a layer >= 1 is
    P^j (H W_j), the operator applied j times to its own product.
    ``policy_net._tower_forward`` computes a layer as one block."""
    cfg = net.config
    inputs, activations, h = [], [], None
    for layer in range(cfg.num_layers):
        acts = []
        for idx, hop in enumerate(cfg.hops):
            w = net.params[f"{tower}.layer{layer}.hop{hop}.w"]
            b = net.params[f"{tower}.layer{layer}.hop{hop}.b"]
            if layer == 0:
                pre = first[idx] @ w
            else:
                pre = h @ w
                for _ in range(hop):
                    pre = prop @ pre
            acts.append(np.tanh(pre + b))
        inputs.append(h)
        activations.append(acts)
        h = np.concatenate(acts, axis=1)
    return ReferenceTowerTape(first, inputs, activations, h)


def reference_tower_backward(net, tower, tape, prop, d_out, grads):
    """The gradient of ``reference_tower_forward``, hop by hop: a tanh
    derivative, a bias sum, P^T applied j times and a weight gradient per
    hop, gradients added by name.

    The input gradient of a layer >= 1 is one product of the hops' gradients
    side by side with their weights side by side, as ``policy_net`` forms
    it: a sum of one product per hop would round differently."""
    cfg = net.config
    hidden = cfg.hidden_per_hop
    for layer in reversed(range(cfg.num_layers)):
        d_hops, weights = [], []
        for idx, hop in enumerate(cfg.hops):
            d_act = d_out[:, idx * hidden:(idx + 1) * hidden]
            act = tape.activations[layer][idx]
            d_pre = d_act * (1.0 - act * act)
            name = f"{tower}.layer{layer}.hop{hop}"
            grads[f"{name}.b"] += d_pre.sum(axis=0)
            if layer == 0:
                # nothing reads the gradient of the features
                grads[f"{name}.w"] += tape.first[idx].T @ d_pre
                continue
            for _ in range(hop):
                d_pre = prop.T @ d_pre
            grads[f"{name}.w"] += tape.inputs[layer].T @ d_pre
            d_hops.append(d_pre)
            weights.append(net.params[f"{name}.w"])
        if layer:
            d_out = np.concatenate(d_hops, axis=1) @ np.concatenate(weights, axis=1).T


@contextmanager
def per_hop_towers():
    """Run ``forward``, ``value`` and ``backward`` with the hop-by-hop towers
    above in place of the block ones; the heads are shared."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(policy_net, "_tower_forward", reference_tower_forward)
        mp.setattr(policy_net, "_tower_backward", reference_tower_backward)
        yield
