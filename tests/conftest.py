"""Shared graph constructors and reference implementations for the test suite."""

import itertools
import multiprocessing
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from fillreduce import (EliminationError, EliminationGraph, EliminationTrace, NetConfig,
                        Ordering, SparsityPattern, TowerStack, backward, compute_features,
                        forward, normalize_features, policy_net, sparsity, symbolic_factorize)
from fillreduce.datagen import _SUPER, DegenerateGeometry, _circumcircle
from fillreduce.features import NUM_FEATURES, NodeFeatures


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test after which a child process is still running: training
    forks a replay worker, which must be gone when ``train`` returns or
    raises."""
    yield
    children = multiprocessing.active_children()
    assert not children, f"child processes still running: {children}"


class ReferenceGraph:
    """The elimination graph as a dict of neighbour sets, mutated in place:
    the reference that ``symbolic.EliminationGraph`` is checked against.

    ``adj`` holds exactly the live nodes and stays symmetric; ``num_edges``
    tracks the current undirected edge count.
    """

    __slots__ = ("adj", "num_edges")

    def __init__(self, pattern: SparsityPattern):
        self.adj: dict[int, set[int]] = dict(enumerate(pattern.adjacency()))
        self.num_edges = pattern.num_edges

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


def live_edges(g: EliminationGraph) -> list[tuple[int, int]]:
    """An ``EliminationGraph``'s live edges as sorted pairs of node ids."""
    return sorted((g.nodes[i], g.nodes[j]) for i, j in g.edges.T.tolist())


def fill_steps(pattern, ordering) -> list[list[tuple[int, int]]]:
    """The fill edges of each step, by replaying ``ReferenceGraph.eliminate``."""
    g = ReferenceGraph(pattern)
    return [g.eliminate(v) for v in ordering]


def fill_edges(pattern, ordering) -> set[tuple[int, int]]:
    """All fill edges of an ordering; the per-step sets are disjoint."""
    return set().union(*fill_steps(pattern, ordering))


def reference_min_degree(pattern) -> Ordering:
    """Minimum degree by a full scan of the live nodes at every step,
    lowest index on ties."""
    g = ReferenceGraph(pattern)
    nodes = []
    while g.live:
        nodes.append(min(g.live, key=lambda u: (g.degree(u), u)))
        g.eliminate(nodes[-1])
    return Ordering(nodes)


def reference_load_matrix_market(source) -> SparsityPattern:
    """Matrix Market loading by a loop over the lines into sets of tuples,
    each line checked in turn, the loop that ``load_matrix_market`` does in
    numpy. Raises the same PatternError for the same first bad line."""
    PatternError = sparsity.PatternError
    with sparsity._open_text(source, "r") as fh:
        header = fh.readline()
        if not header:
            raise PatternError("empty file: missing MatrixMarket header")
        parts = header.strip().split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket":
            raise PatternError(f"malformed MatrixMarket header: {header.strip()!r}")
        obj, fmt, field, symmetry = (w.lower() for w in parts[1:])
        if obj != "matrix":
            raise PatternError(f"unsupported object {obj!r} (only 'matrix')")
        if fmt != "coordinate":
            raise PatternError(f"unsupported format {fmt!r} (only 'coordinate')")
        if field not in sparsity._FIELDS:
            raise PatternError(f"unsupported field {field!r}")
        if symmetry not in sparsity._SYMMETRIES:
            raise PatternError(f"unsupported symmetry {symmetry!r}")

        size_line = None
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_line = stripped
            break
        if size_line is None:
            raise PatternError("missing size line")
        tokens = size_line.split()
        if len(tokens) != 3 or not size_line.isascii() or "_" in size_line:
            raise PatternError(f"malformed size line: {size_line!r}")
        try:
            rows, cols, count = (int(t) for t in tokens)
        except ValueError as exc:
            raise PatternError(f"malformed size line: {size_line!r}") from exc
        if rows != cols:
            raise PatternError(f"non-square matrix: {rows} x {cols}")
        if rows < 0 or count < 0:
            raise PatternError(f"negative dimensions in size line: {size_line!r}")
        if rows > sparsity.MAX_NODES:
            raise PatternError(f"matrix declares {rows} nodes, more than the "
                               f"supported {sparsity.MAX_NODES}")

        width = sparsity._ENTRY_WIDTH[field]
        edges: set[tuple[int, int]] = set()
        diagonal: set[int] = set()
        seen = 0
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            tokens = stripped.split()
            if len(tokens) != width:
                raise PatternError(
                    f"expected {width} tokens for field {field!r}, got: {stripped!r}")
            try:
                # int() and float() also read "1_0" and non-ASCII digits
                if not stripped.isascii() or "_" in stripped:
                    raise ValueError
                i = int(tokens[0])
                j = int(tokens[1])
                for t in tokens[2:]:
                    float(t)  # validate, then discard
            except ValueError as exc:
                raise PatternError(f"malformed entry line: {stripped!r}") from exc
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise PatternError(
                    f"entry ({i}, {j}) out of range for a {rows} x {cols} matrix")
            seen += 1
            if seen > count:
                raise PatternError(f"more than the declared {count} entries")
            if i == j:
                diagonal.add(i - 1)
            else:
                edges.add((min(i, j) - 1, max(i, j) - 1))
        if seen != count:
            raise PatternError(f"declared {count} entries but found {seen}")
        return SparsityPattern(rows, edges, diagonal)


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
    """Both heads on one state, the towers stacked from ``net``'s arrays as
    they are now: (log-probs, value, tape)."""
    return policy_net.evaluate(TowerStack(net), x)


def blow_up_actor(net):
    """Finite parameters under which every actor logit is inf, so every
    log-prob is NaN: the last layer saturates at tanh = 1 and the head's
    weights are 1e308. ``load_checkpoint`` accepts them."""
    net.params["actor.head.w"][:] = 1e308
    net.params[f"actor.layer{net.config.num_layers - 1}.b"][:] = 50.0
    return net


def gradients(tape, d_log_probs, d_value):
    """``backward`` of a tape from ``evaluate``, in the layout of ``net.params``."""
    return tape.net.split(backward(tape.net, tape, d_log_probs, d_value))


def reference_features(g) -> np.ndarray:
    """Unnormalized features by a per-node loop over the reference graph."""
    nodes = sorted(g.live)
    x = np.zeros((len(nodes), NUM_FEATURES), dtype=np.float64)
    deg = {v: len(g.adj[v]) for v in nodes}
    for row, v in enumerate(nodes):
        d = deg[v]
        x[row, 0] = d
        if d > 0:
            x[row, 1] = (d - 1) * sum(deg[u] - 1 for u in g.adj[v])
    return x


def snapshot_edges(g: EliminationGraph, num_nodes: int, num_edges: int) -> np.ndarray:
    """Assert an ``EliminationGraph``'s invariants and return its edges
    sorted, so two graphs compare as sets of edges: sorted node ids, int32
    arrays, each edge once as a column (i, j) with i < j, and ``degree``
    counting each row's edges."""
    assert len(g.nodes) == num_nodes and g.nodes == sorted(g.nodes)
    assert g.degree.dtype == g.edges.dtype == np.int32
    assert g.degree.shape == (num_nodes,) and g.edges.shape == (2, num_edges)
    assert g.num_edges == num_edges
    assert (g.edges[0] < g.edges[1]).all()
    assert np.array_equal(g.degree, np.bincount(g.edges.ravel(), minlength=num_nodes))
    edges = g.edges[:, np.lexsort(g.edges[::-1])]
    assert not (edges[:, 1:] == edges[:, :-1]).all(axis=0).any()    # no repeated edge
    return edges


def environment_edges(g) -> np.ndarray:
    """The reference graph's live edges as a snapshot numbers them, row i
    being the i-th smallest live node: int32 columns (i, j), i < j, sorted."""
    row = {v: i for i, v in enumerate(sorted(g.live))}
    edges = sorted((row[v], row[u]) for v in g.live for u in g.adj[v] if v < u)
    return np.array(edges, dtype=np.int32).reshape(-1, 2).T


def pattern_features(pattern):
    """The features of the pattern's ``EliminationGraph``, every node live."""
    return compute_features(EliminationGraph.of(pattern))


def eliminated_graph(pattern, nodes) -> EliminationGraph:
    """The ``EliminationGraph`` after eliminating ``nodes`` in turn, each
    by its row."""
    g = EliminationGraph.of(pattern)
    for v in nodes:
        g, _ = g.eliminate(g.nodes.index(v))
    return g


def reference_propagation(g, config: NetConfig) -> np.ndarray:
    """The normalized operator by a per-entry loop over the reference graph."""
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


def reference_rollout(net, pattern, rng, greedy=False):
    """The rollout as a plain loop that evaluates the actor at every step,
    complete live graph or not, and takes its argmax (lowest index on ties)
    or ``rng.choice(k, p=probs)``. ``trainer.rollout`` takes the same rows
    up to the first complete state and orders the rest by structure.

    Returns (trace, ordering).
    """
    trace = EliminationTrace()
    g = EliminationGraph.of(pattern)
    for _ in range(pattern.n):
        log_probs = forward(net, normalize_features(compute_features(g)))
        if greedy:
            row = int(np.argmax(log_probs))
        else:
            probs = np.exp(log_probs)
            probs /= probs.sum()
            row = int(rng.choice(len(probs), p=probs))
        node, m = g.nodes[row], g.num_edges
        g, fill = g.eliminate(row)
        trace.append(node, fill, m)
    return trace, Ordering(trace.nodes)


def first_complete_step(trace) -> int:
    """The first step of an episode whose live graph is complete (k nodes
    and k(k-1)/2 edges), or the episode's length if it has no step."""
    n = len(trace)
    return next((t for t, m in enumerate(trace.edges_before)
                 if m == (n - t) * (n - t - 1) // 2), n)


def reference_episode(net, pattern, rng, to_returns):
    """One sampled episode and its gradient the way training did it with a
    tape per step: the rollout keeps every step's completed tape, and the
    gradient pass runs ``backward`` on the kept tapes up to the first
    complete state.

    From there on, the tail rule: the tail's steps are grouped by the
    normalized feature row of their complete live graph, whose rows are all
    alike, in order of first appearance. Each group is one node with that
    row, evaluated once: its value is each step's value, and its gradient
    one ``backward`` with no actor upstream and, for the critic, the sum in
    step order of the group's steps' upstreams, added after the steps before
    the tail. Each tail step's chosen log-prob is -log k.

    Returns (gradients, values, log-probs, ordering).
    """
    tapes, rows, values, nodes, feature_rows = [], [], [], [], []
    g = EliminationGraph.of(pattern)
    for _ in range(pattern.n):
        x = normalize_features(compute_features(g))
        log_probs, v, tape = evaluate(net, x)
        probs = np.exp(log_probs)
        probs /= probs.sum()
        row = int(rng.choice(len(probs), p=probs))
        values.append(v)
        tapes.append(tape)
        rows.append(row)
        nodes.append(g.nodes[row])
        feature_rows.append(x.x[0].tobytes())
        g, _ = g.eliminate(row)
    ordering = Ordering(nodes)
    trace = symbolic_factorize(pattern, ordering)
    returns = to_returns(trace.edges_before, trace.rewards)
    n, t_c = len(tapes), first_complete_step(trace)
    log_probs = [float(tape.log_probs[row]) for tape, row in zip(tapes, rows)]
    groups = {}
    for t in range(t_c, n):
        groups.setdefault(feature_rows[t], []).append(t)
        log_probs[t] = 0.0 - np.log(n - t)
    one = EliminationGraph.of(SparsityPattern(1))
    tail = []
    for key, steps in groups.items():
        _, v, tape = evaluate(net, NodeFeatures(np.frombuffer(key).reshape(1, -1), one))
        tail.append((tape, steps))
        for t in steps:
            values[t] = v
    adv = returns - np.asarray(values, dtype=np.float64)
    passes = []    # (tape, actor upstream, critic upstream), in the order they are added
    for t, tape in enumerate(tapes[:t_c]):
        d_log_probs = np.zeros_like(tape.log_probs)
        d_log_probs[rows[t]] = -adv[t] / n
        passes.append((tape, d_log_probs, -2.0 * adv[t] / n))
    for tape, steps in tail:
        d_value = 0.0
        for t in steps:
            d_value += -2.0 * adv[t] / n
        passes.append((tape, np.zeros(1), d_value))
    grads = net.zero_grads()
    for tape, d_log_probs, d_value in passes:
        for name, arr in gradients(tape, d_log_probs, d_value).items():
            grads[name] += arr
    return grads, values, log_probs, ordering


def _one_tower(arrays, tower):
    """Tower ``tower``'s slice of every stacked array, by the same names."""
    return {name: arr[tower] for name, arr in arrays.items()}


def reference_tower_forward(cfg, params, prefix, prop, first):
    """The towers one at a time, and each hop by hop: a product, a bias add
    and a tanh per hop, each hop's weight and bias sliced from its layer's
    arrays, and the hops concatenated into the layer's output, which is the
    next layer's input. Hop j of layer 0 reads P^j X; hop j of a layer >= 1
    is P^j (H W_j), the operator applied j times to its own product.
    ``policy_net._tower_forward`` computes a layer of every tower as one
    block."""
    if params[f"{prefix}layer0.w"].ndim == 3:
        towers = [reference_tower_forward(cfg, _one_tower(params, t), prefix, prop, first)
                  for t in range(len(policy_net.TOWERS))]
        return [np.stack(layer) for layer in zip(*towers)]
    outputs, h = [], None
    for layer in range(cfg.num_layers):
        acts = []
        for idx, (hop, block) in enumerate(zip(cfg.hops, cfg.hop_blocks)):
            w = params[f"{prefix}layer{layer}.w"][:, block]
            b = params[f"{prefix}layer{layer}.b"][block]
            if layer == 0:
                pre = first[idx] @ w
            else:
                pre = h @ w
                for _ in range(hop):
                    pre = prop @ pre
            acts.append(np.tanh(pre + b))
        h = np.concatenate(acts, axis=1)
        outputs.append(h)
    return outputs


def reference_tower_backward(cfg, params, prefix, outputs, first, prop, d_out, grads):
    """The gradient of ``reference_tower_forward``, one tower at a time and
    hop by hop: a tanh derivative, a bias sum, P^T applied j times and a
    weight gradient per hop, gradients added into the hop's slices of its
    layer's arrays.

    The input gradient of a layer >= 1 is one product of the hops' gradients
    side by side with their weights side by side, as ``policy_net`` forms
    it: a sum of one product per hop would round differently."""
    if outputs[0].ndim == 3:
        for t in range(len(outputs[0])):
            reference_tower_backward(cfg, _one_tower(params, t), prefix,
                                     [h[t] for h in outputs], first, prop, d_out[t],
                                     _one_tower(grads, t))
        return
    for layer in reversed(range(cfg.num_layers)):
        d_hops = []
        name = f"{prefix}layer{layer}"
        for idx, (hop, block) in enumerate(zip(cfg.hops, cfg.hop_blocks)):
            act = outputs[layer][:, block]
            d_pre = d_out[:, block] * (1.0 - act * act)
            grads[f"{name}.b"][block] += d_pre.sum(axis=0)
            if layer == 0:
                # nothing reads the gradient of the features
                grads[f"{name}.w"][:, block] += first[idx].T @ d_pre
                continue
            for _ in range(hop):
                d_pre = prop.T @ d_pre
            grads[f"{name}.w"][:, block] += outputs[layer - 1].T @ d_pre
            d_hops.append(d_pre)
        if layer:   # the layer's weight is its hops' weights side by side
            d_out = np.concatenate(d_hops, axis=1) @ params[f"{name}.w"].T


@contextmanager
def per_hop_towers():
    """Run ``forward``, ``evaluate`` and ``backward`` with the per-tower,
    hop-by-hop towers above in place of the block ones; the heads are shared."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(policy_net, "_tower_forward", reference_tower_forward)
        mp.setattr(policy_net, "_tower_backward", reference_tower_backward)
        yield
