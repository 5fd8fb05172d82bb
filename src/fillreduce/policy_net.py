"""Actor-critic network over elimination graphs, with exact hand-rolled gradients.

Both heads share the same trunk shape but keep separate parameters: a stack
of multi-hop graph convolution layers. Each layer propagates the input
through powers of a normalized adjacency operator, applies a per-hop linear
map and tanh, and concatenates the per-hop outputs. The actor head maps each
node embedding to a logit and log-softmaxes over live nodes; the critic head
maps node embeddings through linear + tanh and mean-pools to one scalar in
(-1, 1).

``forward`` evaluates the actor alone on one snapshot of the live graph
(its ``NodeFeatures``), which is all a rollout needs; ``value`` runs the
critic on the same state when training wants it. The actor reads nothing but
the snapshot, so training replays a step by calling ``forward`` on the
snapshot the rollout kept, and gets the rollout's floats again.
Gradients come from a recorded tape replayed in reverse, not from numeric
differentiation; a finite-difference suite in the tests validates every
parameter.
"""

from __future__ import annotations

import json
import operator
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import NUM_FEATURES, LiveAdjacency, NodeFeatures

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
        return NUM_FEATURES if layer == 0 else self.trunk_width


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

def build_propagation(adj: LiveAdjacency, config: NetConfig | None = None) -> np.ndarray:
    """Normalized adjacency (with self-loops) of the live subgraph, rows and
    columns in sorted live-node order.

    mixhop uses the symmetric normalization D^-1/2 (A + I) D^-1/2; singlehop
    row-normalizes A + I so each row averages the closed neighborhood.
    """
    config = config or NetConfig()
    deg = adj.degree + 1.0                # row sums of A + I
    if config.backbone == "mixhop":
        d_inv_sqrt = 1.0 / np.sqrt(deg)
        diag = d_inv_sqrt * d_inv_sqrt
        off = np.repeat(d_inv_sqrt, adj.degree) * d_inv_sqrt[adj.cols]
    else:
        diag = 1.0 / deg
        off = np.repeat(diag, adj.degree)
    prop = np.diag(diag)
    prop[adj.rows, adj.cols] = off
    return prop


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class TowerTape:
    hop_inputs: list[list[np.ndarray]]    # propagated inputs P^j H_l
    activations: list[list[np.ndarray]]   # tanh outputs per hop
    final: np.ndarray                     # trunk output H_L


@dataclass
class ForwardTape:
    """Cached activations of one state, sufficient for exact gradients:
    ``forward`` records the actor half and ``value`` completes the critic."""

    net: PolicyValueNet
    prop: np.ndarray                      # normalized operator P
    actor: TowerTape
    log_probs: np.ndarray
    critic: TowerTape | None = None
    critic_tanh: np.ndarray | None = None


def _hop_inputs(config: NetConfig, prop: np.ndarray, h: np.ndarray) -> list[np.ndarray]:
    """P^j H for every hop j of a layer, each power from the one before."""
    powers = [h]
    for _ in range(max(config.hops)):
        powers.append(prop @ powers[-1])
    return [powers[hop] for hop in config.hops]


def _tower_forward(net: PolicyValueNet, tower: str, prop: np.ndarray,
                   first: list[np.ndarray]) -> TowerTape:
    """Run one tower from its first layer's hop inputs, which depend only on
    the features and the operator, so both towers share them."""
    cfg = net.config
    hop_inputs, activations = [], []
    for layer in range(cfg.num_layers):
        ms = _hop_inputs(cfg, prop, h) if layer else first
        acts = []
        for hop, m in zip(cfg.hops, ms):
            w = net.params[f"{tower}.layer{layer}.hop{hop}.w"]
            b = net.params[f"{tower}.layer{layer}.hop{hop}.b"]
            acts.append(np.tanh(m @ w + b))
        hop_inputs.append(ms)
        activations.append(acts)
        h = np.concatenate(acts, axis=1)
    return TowerTape(hop_inputs, activations, h)


def forward(net: PolicyValueNet, features: NodeFeatures
            ) -> tuple[np.ndarray, ForwardTape]:
    """Evaluate the actor on one snapshot of the live graph: the normalized
    features and the live adjacency they were computed from.

    Returns log-probabilities over the live nodes (row order = sorted live
    node ids, matching ``features.nodes``) and the tape that ``value``
    completes for ``backward``. The result depends on the snapshot alone.
    """
    k = len(features.adjacency.degree)
    if k == 0:
        raise NetworkError("cannot evaluate the network on an empty graph")
    if features.x.shape != (k, NUM_FEATURES):
        raise NetworkError(f"features have shape {features.x.shape}, "
                           f"the adjacency has {k} live nodes")
    prop = build_propagation(features.adjacency, net.config)
    actor = _tower_forward(net, "actor", prop, _hop_inputs(net.config, prop, features.x))
    logits = actor.final @ net.params["actor.head.w"] + net.params["actor.head.b"][0]
    shifted = logits - logits.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    return log_probs, ForwardTape(net, prop, actor, log_probs)


def value(net: PolicyValueNet, tape: ForwardTape) -> float:
    """Evaluate the critic on the state ``tape`` was recorded in, complete
    the tape for ``backward``, and return the state value in (-1, 1)."""
    if tape.net is not net:
        raise NetworkError("tape was recorded by a different network")
    tape.critic = _tower_forward(net, "critic", tape.prop, tape.actor.hop_inputs[0])
    pre = tape.critic.final @ net.params["critic.head.w"] + net.params["critic.head.b"][0]
    tape.critic_tanh = np.tanh(pre)
    return float(tape.critic_tanh.mean())


def _tower_backward(net: PolicyValueNet, tower: str, tape: TowerTape,
                    prop: np.ndarray, d_out: np.ndarray,
                    grads: dict[str, np.ndarray]) -> None:
    cfg = net.config
    hidden = cfg.hidden_per_hop
    for layer in reversed(range(cfg.num_layers)):
        d_in = np.zeros_like(tape.hop_inputs[layer][0])
        for idx, hop in enumerate(cfg.hops):
            d_act = d_out[:, idx * hidden:(idx + 1) * hidden]
            act = tape.activations[layer][idx]
            d_pre = d_act * (1.0 - act * act)
            m = tape.hop_inputs[layer][idx]
            w = net.params[f"{tower}.layer{layer}.hop{hop}.w"]
            grads[f"{tower}.layer{layer}.hop{hop}.w"] += m.T @ d_pre
            grads[f"{tower}.layer{layer}.hop{hop}.b"] += d_pre.sum(axis=0)
            if layer == 0:
                continue            # nothing reads the gradient of the features
            d_m = d_pre @ w.T
            for _ in range(hop):
                d_m = prop.T @ d_m
            d_in += d_m
        d_out = d_in


def log_softmax_backward(softmax: np.ndarray, d_log_probs: np.ndarray) -> np.ndarray:
    """Pull an upstream gradient back through log_softmax: g - softmax * sum(g).

    In particular the derivative of log_probs[i] with respect to logits[i]
    is 1 - softmax[i].
    """
    return d_log_probs - softmax * d_log_probs.sum()


def backward(net: PolicyValueNet, tape: ForwardTape, d_log_probs: np.ndarray,
             d_value: float, grads: dict[str, np.ndarray] | None = None
             ) -> dict[str, np.ndarray]:
    """Exact parameter gradients of sum(d_log_probs * log_probs) + d_value * value.

    With ``grads`` (from ``net.zero_grads()``) the gradients are added into
    it and it is returned, so a sum over steps needs no array per step.
    """
    if tape.net is not net:
        raise NetworkError("tape was recorded by a different network")
    if tape.critic is None:
        raise NetworkError("tape has no critic half; call value() before backward()")
    d_log_probs = np.asarray(d_log_probs, dtype=np.float64)
    if d_log_probs.shape != tape.log_probs.shape:
        raise NetworkError(
            f"upstream gradient shape {d_log_probs.shape} does not match "
            f"log-probs shape {tape.log_probs.shape}")
    if grads is None:
        grads = net.zero_grads()

    d_logits = log_softmax_backward(np.exp(tape.log_probs), d_log_probs)
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
    """Load a checkpoint, rejecting unknown versions and shape mismatches."""
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
        config = NetConfig(backbone=meta["backbone"], num_layers=meta["num_layers"],
                           hidden_per_hop=meta["hidden_per_hop"])
        # counted, not named: the metadata may declare far more than the archive holds
        declared = 2 * (2 + 2 * len(config.hops) * operator.index(config.num_layers))
    except (ValueError, KeyError, TypeError) as exc:
        raise NetworkError(f"checkpoint {path} has bad metadata "
                           f"({type(exc).__name__}: {exc})") from exc
    if version != FORMAT_VERSION:
        raise NetworkError(f"checkpoint {path} has unsupported version {version!r}")
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
    return PolicyValueNet(config, params=arrays)


def _first(names: list[str], limit: int = 5) -> str:
    """At most ``limit`` names, so an error message stays short."""
    more = f", and {len(names) - limit} more" if len(names) > limit else ""
    return "[" + ", ".join(names[:limit]) + more + "]"
