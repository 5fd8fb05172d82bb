"""Actor-critic network over elimination graphs, with exact hand-rolled gradients.

Both heads share the same trunk shape but keep separate parameters: a stack
of multi-hop graph convolution layers. Each layer propagates the input
through powers of a normalized adjacency operator, applies a per-hop linear
map and tanh, and concatenates the per-hop outputs. The actor head maps each
node embedding to a logit and log-softmaxes over live nodes; the critic head
maps node embeddings through linear + tanh and mean-pools to one scalar in
(-1, 1).

Gradients come from a recorded forward tape replayed in reverse, not from
numeric differentiation; a finite-difference suite in the tests validates
every parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import NUM_FEATURES, NodeFeatures
from .symbolic import EliminationGraph

FORMAT_VERSION = 1

BACKBONES = ("mixhop", "singlehop")


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
    in_dim: int = NUM_FEATURES

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

    def layer_in_width(self, layer: int) -> int:
        return self.in_dim if layer == 0 else self.trunk_width


def param_shapes(config: NetConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map for every parameter; fixes both naming and layout."""
    shapes: dict[str, tuple[int, ...]] = {}
    for tower in ("actor", "critic"):
        for layer in range(config.num_layers):
            w_in = config.layer_in_width(layer)
            for hop in config.hops:
                shapes[f"{tower}.layer{layer}.hop{hop}.w"] = (w_in, config.hidden_per_hop)
                shapes[f"{tower}.layer{layer}.hop{hop}.b"] = (config.hidden_per_hop,)
        shapes[f"{tower}.head.w"] = (config.trunk_width,)
        shapes[f"{tower}.head.b"] = (1,)
    return shapes


def _fan_in(name: str, shape: tuple[int, ...], config: NetConfig) -> int:
    if ".head." in name:
        return config.trunk_width
    layer = int(name.split(".layer")[1].split(".")[0])
    return config.layer_in_width(layer)


class PolicyValueNet:
    """Parameter container for the actor and critic towers."""

    def __init__(self, config: NetConfig | None = None,
                 rng: np.random.Generator | None = None,
                 params: dict[str, np.ndarray] | None = None):
        self.config = config or NetConfig()
        expected = param_shapes(self.config)
        if params is not None:
            got = {k: v.shape for k, v in params.items()}
            if got != expected:
                raise NetworkError(
                    f"parameter set does not match config: got {sorted(got)} "
                    f"expected {sorted(expected)}")
            self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
            return
        if rng is None:
            rng = np.random.default_rng(0)
        # uniform +-1/sqrt(fan_in) keeps tanh pre-activations near linear
        self.params = {}
        for name, shape in expected.items():
            bound = 1.0 / np.sqrt(_fan_in(name, shape, self.config))
            self.params[name] = rng.uniform(-bound, bound, size=shape)

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(arr) for name, arr in self.params.items()}


# ---------------------------------------------------------------------------
# Propagation operator
# ---------------------------------------------------------------------------

@dataclass
class Propagation:
    """Normalized adjacency operator over the live nodes, applied as powers.

    Power 0 is the identity; higher powers are applied by repeated
    multiplication rather than materializing the matrix power.
    """

    nodes: list[int]
    base: np.ndarray

    def apply(self, hop: int, x: np.ndarray) -> np.ndarray:
        for _ in range(hop):
            x = self.base @ x
        return x

    def apply_t(self, hop: int, x: np.ndarray) -> np.ndarray:
        for _ in range(hop):
            x = self.base.T @ x
        return x


def build_propagation(g: EliminationGraph, config: NetConfig | None = None) -> Propagation:
    """Normalized adjacency (with self-loops) of the live subgraph.

    mixhop uses the symmetric normalization D^-1/2 (A + I) D^-1/2; singlehop
    row-normalizes A + I so each row averages the closed neighborhood.
    """
    config = config or NetConfig()
    nodes = sorted(g.live)
    k = len(nodes)
    row = {v: i for i, v in enumerate(nodes)}
    a = np.eye(k)
    for v in nodes:
        i = row[v]
        for u in g.adj[v]:
            a[i, row[u]] = 1.0
    deg = a.sum(axis=1)
    if config.backbone == "mixhop":
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        base = a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    else:
        base = a / deg[:, None]
    return Propagation(nodes, base)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class TowerTape:
    inputs: list[np.ndarray]              # H_l, input of layer l
    hop_inputs: list[list[np.ndarray]]    # propagated inputs P^j H_l
    activations: list[list[np.ndarray]]   # tanh outputs per hop
    final: np.ndarray                     # trunk output H_L


@dataclass
class ForwardTape:
    """Cached activations of one forward call, sufficient for exact gradients."""

    net: PolicyValueNet
    prop: Propagation
    actor: TowerTape
    critic: TowerTape
    softmax: np.ndarray
    log_probs: np.ndarray
    critic_tanh: np.ndarray
    value: float


def _tower_forward(net: PolicyValueNet, tower: str, prop: Propagation,
                   x: np.ndarray) -> TowerTape:
    cfg = net.config
    h = x
    inputs, hop_inputs, activations = [], [], []
    for layer in range(cfg.num_layers):
        inputs.append(h)
        ms, acts = [], []
        for hop in cfg.hops:
            m = prop.apply(hop, h)
            w = net.params[f"{tower}.layer{layer}.hop{hop}.w"]
            b = net.params[f"{tower}.layer{layer}.hop{hop}.b"]
            acts.append(np.tanh(m @ w + b))
            ms.append(m)
        hop_inputs.append(ms)
        activations.append(acts)
        h = np.concatenate(acts, axis=1)
    return TowerTape(inputs, hop_inputs, activations, h)


def forward(net: PolicyValueNet, g: EliminationGraph,
            x: NodeFeatures) -> tuple[np.ndarray, float, ForwardTape]:
    """Evaluate both heads on the live subgraph.

    Returns log-probabilities over the live nodes (row order = sorted live
    node ids, matching ``x.nodes``), the scalar state value in (-1, 1), and
    the tape for ``backward``.
    """
    if not g.live:
        raise NetworkError("cannot evaluate the network on an empty graph")
    nodes = sorted(g.live)
    if x.nodes != nodes or x.x.shape != (len(nodes), net.config.in_dim):
        raise NetworkError(
            f"features cover {len(x.nodes)} nodes, graph has {len(nodes)} live nodes")
    prop = build_propagation(g, net.config)

    actor = _tower_forward(net, "actor", prop, x.x)
    logits = actor.final @ net.params["actor.head.w"] + net.params["actor.head.b"][0]
    shifted = logits - logits.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    softmax = np.exp(log_probs)

    critic = _tower_forward(net, "critic", prop, x.x)
    pre = critic.final @ net.params["critic.head.w"] + net.params["critic.head.b"][0]
    critic_tanh = np.tanh(pre)
    value = float(critic_tanh.mean())

    tape = ForwardTape(net, prop, actor, critic, softmax, log_probs, critic_tanh, value)
    return log_probs, value, tape


def _tower_backward(net: PolicyValueNet, tower: str, tape: TowerTape,
                    prop: Propagation, d_out: np.ndarray,
                    grads: dict[str, np.ndarray]) -> None:
    cfg = net.config
    hidden = cfg.hidden_per_hop
    for layer in reversed(range(cfg.num_layers)):
        d_in = np.zeros_like(tape.inputs[layer])
        for idx, hop in enumerate(cfg.hops):
            d_act = d_out[:, idx * hidden:(idx + 1) * hidden]
            act = tape.activations[layer][idx]
            d_pre = d_act * (1.0 - act * act)
            m = tape.hop_inputs[layer][idx]
            w = net.params[f"{tower}.layer{layer}.hop{hop}.w"]
            grads[f"{tower}.layer{layer}.hop{hop}.w"] += m.T @ d_pre
            grads[f"{tower}.layer{layer}.hop{hop}.b"] += d_pre.sum(axis=0)
            d_in += prop.apply_t(hop, d_pre @ w.T)
        d_out = d_in


def log_softmax_backward(softmax: np.ndarray, d_log_probs: np.ndarray) -> np.ndarray:
    """Pull an upstream gradient back through log_softmax: g - softmax * sum(g).

    In particular the derivative of log_probs[i] with respect to logits[i]
    is 1 - softmax[i].
    """
    return d_log_probs - softmax * d_log_probs.sum()


def backward(net: PolicyValueNet, tape: ForwardTape, d_log_probs: np.ndarray,
             d_value: float) -> dict[str, np.ndarray]:
    """Exact parameter gradients of sum(d_log_probs * log_probs) + d_value * value."""
    if tape.net is not net:
        raise NetworkError("tape was recorded by a different network")
    d_log_probs = np.asarray(d_log_probs, dtype=np.float64)
    if d_log_probs.shape != tape.log_probs.shape:
        raise NetworkError(
            f"upstream gradient shape {d_log_probs.shape} does not match "
            f"log-probs shape {tape.log_probs.shape}")
    grads = net.zero_grads()

    d_logits = log_softmax_backward(tape.softmax, d_log_probs)
    grads["actor.head.w"] += tape.actor.final.T @ d_logits
    grads["actor.head.b"] += d_logits.sum(keepdims=True)
    d_h = np.outer(d_logits, net.params["actor.head.w"])
    _tower_backward(net, "actor", tape.actor, tape.prop, d_h, grads)

    # critic head: mean pool then tanh then linear
    t = tape.critic_tanh
    d_pre = (d_value / t.size) * (1.0 - t * t)
    grads["critic.head.w"] += tape.critic.final.T @ d_pre
    grads["critic.head.b"] += d_pre.sum(keepdims=True)
    d_h = np.outer(d_pre, net.params["critic.head.w"])
    _tower_backward(net, "critic", tape.critic, tape.prop, d_h, grads)
    return grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(net: PolicyValueNet, path: str | Path) -> None:
    """Write parameters plus architecture metadata as an npz archive."""
    meta = json.dumps({
        "format_version": FORMAT_VERSION,
        "backbone": net.config.backbone,
        "num_layers": net.config.num_layers,
        "hidden_per_hop": net.config.hidden_per_hop,
        "in_dim": net.config.in_dim,
    }, sort_keys=True)
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(meta), **net.params)


def load_checkpoint(path: str | Path) -> PolicyValueNet:
    """Load a checkpoint, rejecting unknown versions and shape mismatches."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
    except (OSError, ValueError) as exc:
        raise NetworkError(f"cannot read checkpoint {path}: {exc}") from exc
    if "__meta__" not in arrays:
        raise NetworkError(f"checkpoint {path} has no metadata entry")
    meta = json.loads(str(arrays.pop("__meta__")))
    if meta.get("format_version") != FORMAT_VERSION:
        raise NetworkError(
            f"unsupported checkpoint version {meta.get('format_version')!r}")
    config = NetConfig(backbone=meta["backbone"], num_layers=meta["num_layers"],
                       hidden_per_hop=meta["hidden_per_hop"], in_dim=meta["in_dim"])
    expected = param_shapes(config)
    got = {k: v.shape for k, v in arrays.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        bad = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        raise NetworkError(
            f"checkpoint {path} does not match its declared shapes "
            f"(missing={missing}, extra={extra}, mismatched={bad})")
    return PolicyValueNet(config, params=arrays)
