"""Actor-critic network over elimination graphs, with exact hand-rolled gradients.

Both heads share the same trunk shape but keep separate parameters: a stack
of multi-hop graph convolution layers. Each layer propagates the input
through powers of a normalized adjacency operator, applies a per-hop linear
map and tanh, and concatenates the per-hop outputs. The actor head maps each
node embedding to a logit and log-softmaxes over live nodes; the critic head
maps node embeddings through linear + tanh and mean-pools to one scalar in
(-1, 1). The actor's head has no bias: log-softmax cancels a constant
added to every logit.

Each parameter is one array holding both towers, stacked on a leading
tower axis, actor first; the head bias is the critic's alone. Layer l has
one weight ``layer{l}.w`` of shape (2, in_width, trunk_width), hop j's map
W_j in its j-th column block, and one bias ``layer{l}.b``, as MixHop writes
a layer. A layer is computed as one block of shape (k, trunk_width) per
tower, hops side by side. Layer 0 widens its two input features, so it
propagates first: its hop j reads P^j X, which both towers share. A layer
>= 1 narrows its input, so it multiplies by the weights first, as GCN and
MixHop do: hop j is P^j (H W_j), and the operator meets hidden_per_hop
columns per power instead of trunk_width. Each hop's products are written
into its column block; products over several hops' columns at once would
round each hop differently from the same hop computed alone. The layer
then adds its bias and applies tanh once; the next layer reads that array
as it is. The backward pass mirrors this: P^T applied j times to hop j's
block, one weight-gradient product per hop, and one product for the input
gradient.

The tower kernels index with ``...`` and ``.mT``, so they run the actor's
slices, C-contiguous views, or the stacked arrays, where each ``matmul``
makes, slice by slice, the products of one tower alone, so every float is
the same; the towers' columns side by side in one 2-D product would round
differently. ``forward`` runs the actor alone, which is all a rollout
needs; ``evaluate`` runs both towers in one pass, and ``backward`` pulls
both back in one pass.
The actor reads nothing but the snapshot, so a training replay on the
graph rebuilt by the rollout's own eliminations gets the rollout's floats.
Gradients come from a recorded tape replayed in reverse, not from numeric
differentiation; a finite-difference suite in the tests validates every
parameter.
"""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .features import NUM_FEATURES, NodeFeatures
from .symbolic import EliminationGraph

FORMAT_VERSION = 3

BACKBONES = ("mixhop", "singlehop")

TOWERS = ("actor", "critic")


class NetworkError(ValueError):
    """Invalid state, mismatched tape, or bad checkpoint."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture knobs. ``backbone`` selects the hop set and normalization:

    - "mixhop": adjacency powers {0, 1, 2} of the symmetrically normalized
      operator D^-1/2 (A + I) D^-1/2.
    - "singlehop": power {1} of the row-normalized operator (mean over the
      closed neighborhood), the ablation variant.
    """

    backbone: str = "mixhop"
    num_layers: int = 2
    hidden_per_hop: int = 16

    def __post_init__(self):
        if self.backbone not in BACKBONES:
            raise NetworkError(f"unknown backbone {self.backbone!r}")
        if self.num_layers < 1 or self.hidden_per_hop < 1:
            raise NetworkError("need at least one layer and one hidden unit")

    @property
    def hops(self) -> tuple[int, ...]:
        return (0, 1, 2) if self.backbone == "mixhop" else (1,)

    @property
    def trunk_width(self) -> int:
        return len(self.hops) * self.hidden_per_hop

    @cached_property
    def hop_blocks(self) -> tuple[slice, ...]:
        """Each hop's columns in a layer's output, in ``hops`` order."""
        h = self.hidden_per_hop
        return tuple(slice(j * h, (j + 1) * h) for j in range(len(self.hops)))

    def layer_in_width(self, layer: int) -> int:
        return NUM_FEATURES if layer == 0 else self.trunk_width


def param_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map for every parameter, both towers stacked on the
    leading axis, actor first, but the critic's ``head.b``; fixes the layout."""
    towers, width = len(TOWERS), config.trunk_width
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(config.num_layers):
        shapes[f"layer{layer}.w"] = (towers, config.layer_in_width(layer), width)
        shapes[f"layer{layer}.b"] = (towers, width)
    shapes["head.w"] = (towers, width)
    shapes["head.b"] = (1,)
    return shapes


def tower_arrays(params: Mapping[str, np.ndarray]) -> Iterator[tuple[str, np.ndarray]]:
    """Each tower's slice of every stacked array in ``param_shapes`` order,
    the actor's first, then the critic's head bias, each named
    ``{tower}.{name}`` as an error message shows it."""
    for i, tower in enumerate(TOWERS):
        yield from ((f"{tower}.{name}", arr[i]) for name, arr in params.items() if name != "head.b")
    yield "critic.head.b", params["head.b"]


def _init_params(config: NetConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform +-1/sqrt(fan_in), which keeps tanh pre-activations near linear.

    The actor's arrays are drawn before the critic's. A layer's weight and
    bias are drawn hop by hop, each hop's weight before its bias, and put
    side by side; the actor's head bias is drawn and dropped. So a seed
    gives the floats it gave when every tower and hop had its own arrays.
    """
    towers = []
    for _ in TOWERS:
        params = {}
        for layer in range(config.num_layers):
            w_in = config.layer_in_width(layer)
            bound = 1.0 / np.sqrt(w_in)
            draws = [(rng.uniform(-bound, bound, size=(w_in, config.hidden_per_hop)),
                      rng.uniform(-bound, bound, size=config.hidden_per_hop))
                     for _ in config.hops]
            params[f"layer{layer}.w"] = np.concatenate([w for w, _ in draws], axis=1)
            params[f"layer{layer}.b"] = np.concatenate([b for _, b in draws])
        bound = 1.0 / np.sqrt(config.trunk_width)
        params["head.w"] = rng.uniform(-bound, bound, size=config.trunk_width)
        params["head.b"] = rng.uniform(-bound, bound, size=1)
        towers.append(params)
    return {name: towers[1][name] if name == "head.b" else np.stack([t[name] for t in towers])
            for name in towers[0]}


class PolicyValueNet:
    """Parameter container for the actor and critic towers: ``params`` maps
    each name of ``param_shapes`` to its array, in that order."""

    def __init__(self, config: NetConfig | None = None,
                 rng: np.random.Generator | None = None,
                 params: Mapping[str, np.ndarray] | None = None):
        self.config = config or NetConfig()
        expected = param_shapes(self.config)
        if params is not None:
            got = {k: v.shape for k, v in params.items()}
            if got != expected:
                raise NetworkError(
                    f"parameter set does not match config: got {sorted(got)} "
                    f"expected {sorted(expected)}")
        else:
            params = _init_params(self.config, rng or np.random.default_rng(0))
        self.params = {name: np.array(params[name], dtype=np.float64) for name in expected}

    def zero_grads(self) -> dict[str, np.ndarray]:
        """Zero arrays in the layout of ``params``, for ``backward`` to add into."""
        return {name: np.zeros(shape) for name, shape in param_shapes(self.config).items()}


# ---------------------------------------------------------------------------
# Propagation operator
# ---------------------------------------------------------------------------

# the most bytes one dense float64 k x k operator may take, and so the most
# nodes the learned policy takes: 8 * 11585^2 is just under 1 GiB
OPERATOR_BUDGET_BYTES = 2 ** 30
MAX_POLICY_NODES = math.isqrt(OPERATOR_BUDGET_BYTES // 8)


def check_operator_size(n: int) -> None:
    """Refuse a graph of n nodes whose dense operator would exceed
    ``OPERATOR_BUDGET_BYTES``, with one error naming n and the limit."""
    if n > MAX_POLICY_NODES:
        raise NetworkError(
            f"the learned policy takes graphs of at most {MAX_POLICY_NODES} nodes "
            f"(its dense operator within {OPERATOR_BUDGET_BYTES / 2 ** 30:g} GiB), "
            f"got {n} nodes")


def build_propagation(g: EliminationGraph, config: NetConfig | None = None) -> np.ndarray:
    """Normalized adjacency (with self-loops) of the live subgraph, rows and
    columns in sorted live-node order, written from the snapshot's edge list
    into both triangles.

    mixhop uses the symmetric normalization D^-1/2 (A + I) D^-1/2, one
    product per edge for both of its entries; singlehop row-normalizes
    A + I so each row averages the closed neighborhood.
    """
    config = config or NetConfig()
    deg = g.degree + 1.0                  # row sums of A + I
    k = len(deg)
    i, j = g.edges
    prop = np.zeros((k, k))
    flat = prop.reshape(-1)               # a view: one flat index per entry
    upper, lower = i * np.intp(k) + j, j * np.intp(k) + i
    if config.backbone == "mixhop":
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        flat[::k + 1] = d_inv_sqrt * d_inv_sqrt
        flat[upper] = flat[lower] = d_inv_sqrt.take(i) * d_inv_sqrt.take(j)
    else:
        diag = 1.0 / deg
        flat[::k + 1] = diag
        flat[upper], flat[lower] = diag.take(i), diag.take(j)
    return prop


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTape:
    """What ``evaluate`` recorded of one state for ``backward``, both towers stacked."""

    net: PolicyValueNet
    prop: np.ndarray                      # normalized operator P
    first: list[np.ndarray]               # layer 0's hop inputs P^j X, shared by both towers
    outputs: list[np.ndarray]             # each layer's tanh output, (2, k, trunk_width)
    log_probs: np.ndarray
    critic_tanh: np.ndarray


def _tower_forward(cfg: NetConfig, params: Mapping[str, np.ndarray],
                   prop: np.ndarray, first: list[np.ndarray]) -> list[np.ndarray]:
    """Each layer's output of the tower(s) whose arrays ``params`` holds:
    (k, trunk_width) for the actor's slices, (2, k, trunk_width) for the
    stacked arrays. Starts from layer 0's hop inputs, which depend only on
    the features and the operator, so both towers share them."""
    outputs = []
    for layer in range(cfg.num_layers):
        w = params[f"layer{layer}.w"]
        h = np.empty(w.shape[:-2] + (len(prop), cfg.trunk_width))
        for hop, m, block in zip(cfg.hops, first, cfg.hop_blocks):
            # layer 0 reads P^j X; a layer >= 1 forms H W_j, then P^j (H W_j)
            np.matmul(outputs[-1] if layer else m, w[..., block], out=h[..., block])
            for _ in range(hop if layer else 0):
                h[..., block] = prop @ h[..., block]
        h += params[f"layer{layer}.b"][..., None, :]
        np.tanh(h, out=h)
        outputs.append(h)
    return outputs


def _trunk(cfg: NetConfig, params: Mapping[str, np.ndarray], features: NodeFeatures
           ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Check one snapshot and run the tower(s) on it: (P, hop inputs, outputs)."""
    k = len(features.graph.degree)
    if k == 0:
        raise NetworkError("cannot evaluate the network on an empty graph")
    if features.x.shape != (k, NUM_FEATURES):
        raise NetworkError(f"features have shape {features.x.shape}, "
                           f"the adjacency has {k} live nodes")
    prop = build_propagation(features.graph, cfg)
    powers = [features.x]    # layer 0 widens its input, so it propagates first: P^j X
    for _ in range(max(cfg.hops)):
        powers.append(prop @ powers[-1])
    first = [powers[hop] for hop in cfg.hops]
    return prop, first, _tower_forward(cfg, params, prop, first)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def forward(net: PolicyValueNet, features: NodeFeatures) -> np.ndarray:
    """Evaluate the actor alone on one snapshot of the live graph: the
    normalized features and the graph they were computed from.

    Returns log-probabilities over the live nodes (row order = sorted live
    node ids, matching ``features.graph.nodes``). The result depends on the
    snapshot alone.
    """
    actor = {name: arr[0] for name, arr in net.params.items() if name != "head.b"}
    _, _, outputs = _trunk(net.config, actor, features)
    return _log_softmax(outputs[-1] @ actor["head.w"])


def evaluate(net: PolicyValueNet, features: NodeFeatures
             ) -> tuple[np.ndarray, float, ForwardTape]:
    """Both towers on one snapshot in one stacked pass: the actor's
    log-probabilities, bitwise those of ``forward``; the critic's state value
    in (-1, 1), the mean of tanh of its per-node head; and the tape for
    ``backward``."""
    prop, first, outputs = _trunk(net.config, net.params, features)
    pre = (outputs[-1] @ net.params["head.w"][..., None])[..., 0]
    log_probs, critic_tanh = _log_softmax(pre[0]), np.tanh(pre[1] + net.params["head.b"])
    tape = ForwardTape(net, prop, first, outputs, log_probs, critic_tanh)
    return log_probs, float(critic_tanh.mean()), tape


def _tower_backward(cfg: NetConfig, params: Mapping[str, np.ndarray],
                    outputs: list[np.ndarray], first: list[np.ndarray], prop: np.ndarray,
                    d_out: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Pull ``d_out``, the gradient of the last layer's output, back through
    the tower(s) of ``_tower_forward`` and add into ``grads``, laid out alike."""
    for layer in reversed(range(cfg.num_layers)):
        h = outputs[layer]
        d = d_out * (1.0 - h * h)
        grads[f"layer{layer}.b"] += d.sum(axis=-2)
        g_w = grads[f"layer{layer}.w"]
        for hop, m, block in zip(cfg.hops, first, cfg.hop_blocks):
            # from the gradient of P^j (H W_j) to that of H W_j
            for _ in range(hop if layer else 0):
                d[..., block] = prop.T @ d[..., block]
            g_w[..., block] += (outputs[layer - 1] if layer else m).mT @ d[..., block]
        if layer:   # nothing reads the gradient of the features
            d_out = d @ params[f"layer{layer}.w"].mT


def log_softmax_backward(softmax: np.ndarray, d_log_probs: np.ndarray) -> np.ndarray:
    """Pull an upstream gradient back through log_softmax: g - softmax * sum(g).

    In particular the derivative of log_probs[i] with respect to logits[i]
    is 1 - softmax[i].
    """
    return d_log_probs - softmax * d_log_probs.sum()


def backward(net: PolicyValueNet, tape: ForwardTape, d_log_probs: np.ndarray,
             d_value: float, grads: dict[str, np.ndarray] | None = None
             ) -> dict[str, np.ndarray]:
    """Exact parameter gradients of sum(d_log_probs * log_probs) + d_value * value,
    for both towers in one pass, in the layout of ``net.params``.

    With ``grads`` (from ``net.zero_grads()``) the gradients are added into
    it and it is returned, so a sum over steps needs no array per step.
    """
    if tape.net is not net:
        raise NetworkError("tape was recorded by a different network")
    d_log_probs = np.asarray(d_log_probs, dtype=np.float64)
    if d_log_probs.shape != tape.log_probs.shape:
        raise NetworkError(
            f"upstream gradient shape {d_log_probs.shape} does not match "
            f"log-probs shape {tape.log_probs.shape}")
    if grads is None:
        grads = net.zero_grads()
    # the actor's logits, and the critic's mean pool then tanh, per node
    t = tape.critic_tanh
    d_heads = np.stack((log_softmax_backward(np.exp(tape.log_probs), d_log_probs),
                        (d_value / t.size) * (1.0 - t * t)))
    grads["head.w"] += (tape.outputs[-1].mT @ d_heads[..., None])[..., 0]
    grads["head.b"] += d_heads[1].sum(keepdims=True)
    d_out = d_heads[..., None] * net.params["head.w"][:, None, :]   # each tower's outer product
    _tower_backward(net.config, net.params, tape.outputs, tape.first, tape.prop, d_out, grads)
    return grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(net: PolicyValueNet, path: str | Path) -> None:
    """Write parameters plus architecture metadata as an npz archive.

    The archive goes to a temporary file in the target's directory, is
    flushed to disk, and then replaces the target in one step, so a crash
    mid-save leaves the previous checkpoint intact.
    """
    meta = json.dumps({
        "format_version": FORMAT_VERSION,
        "backbone": net.config.backbone,
        "num_layers": net.config.num_layers,
        "hidden_per_hop": net.config.hidden_per_hop,
        "in_dim": NUM_FEATURES,
    }, sort_keys=True)
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, __meta__=np.array(meta), **net.params)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_checkpoint(path: str | Path) -> PolicyValueNet:
    """Load a checkpoint, rejecting unknown versions, bad shapes and NaN or inf."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
    except (OSError, ValueError) as exc:
        raise NetworkError(f"cannot read checkpoint {path}: {exc}") from exc
    if "__meta__" not in arrays:
        raise NetworkError(f"checkpoint {path} has no metadata entry")
    try:
        meta = json.loads(str(arrays.pop("__meta__")))
        version, in_dim = meta["format_version"], meta["in_dim"]
        config = NetConfig(backbone=meta["backbone"],
                           num_layers=operator.index(meta["num_layers"]),
                           hidden_per_hop=operator.index(meta["hidden_per_hop"]))
        # counted, not named: the metadata may declare far more than the archive holds
        declared = 2 + 2 * config.num_layers
    except (ValueError, KeyError, TypeError) as exc:
        raise NetworkError(f"checkpoint {path} has bad metadata "
                           f"({type(exc).__name__}: {exc})") from exc
    if version != FORMAT_VERSION:
        raise NetworkError(f"checkpoint {path} has unsupported version {version!r}, "
                           f"expected {FORMAT_VERSION}; re-run `train` to write it")
    if in_dim != NUM_FEATURES:
        raise NetworkError(f"checkpoint {path} has {in_dim!r} input features, "
                           f"expected {NUM_FEATURES}")
    if declared != len(arrays):
        gap = declared - len(arrays)
        raise NetworkError(
            f"checkpoint {path} declares {declared} parameter arrays and holds "
            f"{len(arrays)} ({abs(gap)} {'missing' if gap > 0 else 'extra'})")
    expected = param_shapes(config)
    got = {k: v.shape for k, v in arrays.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        bad = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        raise NetworkError(
            f"checkpoint {path} does not match its declared shapes (missing="
            f"{_first(missing)}, extra={_first(extra)}, mismatched={_first(bad)})")
    for name, arr in tower_arrays(arrays):
        if not np.isfinite(arr).all():
            raise NetworkError(f"checkpoint {path} has non-finite values in {name}")
    return PolicyValueNet(config, params=arrays)


def _first(names: list[str], limit: int = 5) -> str:
    """At most ``limit`` names, so an error message stays short."""
    more = f", and {len(names) - limit} more" if len(names) > limit else ""
    return "[" + ", ".join(names[:limit]) + more + "]"
