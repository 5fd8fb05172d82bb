"""Training loop for the learned elimination policy.

One episode fully eliminates one graph: at each step the actor scores the
live nodes, a node is sampled (or taken greedily at evaluation time), the
snapshot eliminates it, and the negative fill count is the reward. After
the episode the suffix-sum returns are squashed through the adaptive
saturation map (|E_t| + R_t) / (|E_t| - R_t), which lands in (-1, 1] and
matches the critic's tanh range, advantages weight the policy gradient, and
one optimizer step is applied per episode.

An episode keeps nothing but its ``EliminationTrace``: the node, fill and
edge count of each step. The rollout runs the actor alone. The gradient
pass replays the episode from the pattern, rebuilding each step's snapshot
by the rollout's own integer patch, and runs both towers, stacked once per
episode in a ``TowerStack``, through one ``evaluate`` and one ``backward``
per step; so it gets the rollout's floats again and holds one step's
snapshot and activations at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .features import compute_features, normalize_features
from .policy_net import (NetConfig, NetworkError, PolicyValueNet, TowerStack, backward,
                         evaluate, forward, save_checkpoint)
from .sparsity import Ordering, SparsityPattern, _open_text
from .symbolic import EliminationTrace

REWARD_VARIANTS = ("asr", "raw")

# Adam moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# step sizes of the first full pass over the training set and of every later one
LR_FIRST_EPOCH = 0.01
LR_REST = 0.001


@dataclass
class TrainerConfig:
    epochs: int = 1
    episodes_per_graph: int = 1
    seed: int = 0
    backbone: str = "mixhop"
    reward: str = "asr"          # "asr" or "raw" (ablation)
    checkpoint_every: int = 0    # episodes; 0 disables periodic checkpoints
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.episodes_per_graph < 1:
            raise ValueError("epochs and episodes per graph must be at least 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must not be negative (0 disables it)")
        if self.checkpoint_every and not self.checkpoint_path:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        if self.reward not in REWARD_VARIANTS:
            raise ValueError(f"unknown reward variant {self.reward!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def learning_rate(epoch: int) -> float:
    """Schedule: one rate for the first full pass, a lower one after."""
    return LR_FIRST_EPOCH if epoch == 1 else LR_REST


def rollout(net: PolicyValueNet, pattern: SparsityPattern,
            rng: np.random.Generator | None, greedy: bool = False
            ) -> tuple[EliminationTrace, Ordering]:
    """Run one full elimination episode on the snapshot of ``compute_features``,
    which is read from the pattern once and then patched with each elimination.

    Only the actor is evaluated, and the episode keeps only its trace.
    Sampling draws from the policy distribution by one ``rng.random()``, as
    ``rng.choice(k, p=probs)`` does; greedy mode takes the argmax with
    lowest-index tie-break (row order is sorted node ids) and needs no rng.
    An empty pattern gives an empty trace and ordering. A chosen log-prob
    that is not finite (NaN logits make them all NaN) raises ``NetworkError``.
    """
    if not greedy and rng is None:
        raise ValueError("sampling rollout needs an rng")
    trace = EliminationTrace()
    raw = compute_features(pattern)
    for step in range(pattern.n):
        log_probs = forward(net, normalize_features(raw))
        if greedy:
            row = int(np.argmax(log_probs))
        else:
            probs = np.exp(log_probs)
            cdf = (probs / probs.sum()).cumsum()
            cdf /= cdf[-1]
            row = int(cdf.searchsorted(rng.random(), side="right"))
        if not np.isfinite(log_probs[row]):
            raise NetworkError(f"the policy's log-probabilities are not finite at step {step}")
        node, m, d = raw.nodes[row], raw.adjacency.edges.shape[1], int(raw.adjacency.degree[row])
        raw = compute_features(raw, row)
        # the patch drops d + e edges and adds the C(d, 2) clique: fill C(d, 2) - e = m' - m + d
        trace.append(node, raw.adjacency.edges.shape[1] - m + d, m)
    return trace, Ordering(trace.nodes)


def adaptive_saturation_return(edge_counts: Sequence[int],
                               rewards: Sequence[int]) -> np.ndarray:
    """Per-step saturated return (|E_t| + R_t) / (|E_t| - R_t), in (-1, 1].

    R_t is the undiscounted suffix sum of rewards. R_t = 0 gives 1 for any
    positive edge count; the 0/0 case (edgeless tail) is 1 by convention.
    """
    if len(edge_counts) != len(rewards):
        raise ValueError("edge counts and rewards must have equal length")
    e = np.asarray(edge_counts, dtype=np.float64)
    r = np.cumsum(np.asarray(rewards, dtype=np.float64)[::-1])[::-1]
    asr = np.ones_like(e)
    nonzero = (e - r) != 0
    asr[nonzero] = (e[nonzero] + r[nonzero]) / (e[nonzero] - r[nonzero])
    return asr


def raw_return(edge_counts: Sequence[int], rewards: Sequence[int]) -> np.ndarray:
    """Ablation variant: suffix-sum return scaled by the initial edge count."""
    if len(edge_counts) != len(rewards):
        raise ValueError("edge counts and rewards must have equal length")
    r = np.cumsum(np.asarray(rewards, dtype=np.float64)[::-1])[::-1]
    scale = max(1.0, float(edge_counts[0])) if len(edge_counts) else 1.0
    return r / scale


def losses(log_probs: Sequence[float], values: Sequence[float], returns: np.ndarray
           ) -> tuple[float, float, np.ndarray]:
    """Actor loss, critic loss, and the per-step advantages.

    ``log_probs`` are the log-probabilities of the chosen actions.
    Advantages are returns minus the critic's ``values`` and act as
    constants in the actor loss; the critic loss is their mean square, with
    gradient flowing through the value estimates only.
    """
    if len(returns) != len(log_probs) or len(values) != len(log_probs):
        raise ValueError("returns or values length does not match the episode length")
    adv = returns - np.asarray(values, dtype=np.float64)
    logp = np.asarray(log_probs, dtype=np.float64)
    l_actor = float(-(logp * adv).mean())
    l_critic = float((adv * adv).mean())
    return l_actor, l_critic, adv


def episode_gradients(net: PolicyValueNet, pattern: SparsityPattern,
                      trace: EliminationTrace, returns: np.ndarray
                      ) -> tuple[dict[str, np.ndarray], list[float], list[float]]:
    """Accumulated gradients of L_actor + L_critic over all episode steps,
    the critic's value of each step, and the log-probability of each step's
    chosen node.

    Replays the episode from the pattern one step at a time: each step's
    snapshot is rebuilt by the patch the rollout applied, and ``evaluate``
    runs both towers on it, stacked once for the episode, so the actor reads
    the rollout's floats again. The advantage is the step's return minus the
    value, and the step's tape is freed before the next one is built.
    """
    n = len(trace)
    if pattern.n != n or len(returns) != n:
        raise ValueError(f"an episode on {pattern.n} nodes needs {pattern.n} steps and "
                         f"returns, got {n} steps and {len(returns)} returns")
    towers = TowerStack(net)
    grads = towers.zero_grads()
    values: list[float] = []
    chosen: list[float] = []
    raw = compute_features(pattern)
    for node, ret in zip(trace.nodes, returns):
        row = bisect_left(raw.nodes, node)
        log_probs, v, tape = evaluate(towers, normalize_features(raw))
        adv = ret - v
        d_log_probs = np.zeros_like(log_probs)
        d_log_probs[row] = -adv / n
        backward(towers, tape, d_log_probs, -2.0 * adv / n, grads)
        del tape
        values.append(v)
        chosen.append(float(log_probs[row]))
        raw = compute_features(raw, row)
    return towers.split(grads), values, chosen


class AdamState:
    """Adaptive moment estimation with bias correction."""

    def __init__(self, net: PolicyValueNet):
        self.m = net.zero_grads()
        self.v = net.zero_grads()
        self.t = 0

    def step(self, net: PolicyValueNet, grads: dict[str, np.ndarray],
             lr: float) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            net.params[name] -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


@dataclass
class TrainLogEntry:
    epoch: int
    graph_id: int
    total_fill: int
    l_actor: float
    l_critic: float

    def format(self) -> str:
        return (f"{self.epoch},{self.graph_id},{self.total_fill},"
                f"{self.l_actor:.6g},{self.l_critic:.6g}")


def write_training_log(entries: Sequence[TrainLogEntry],
                       target: str | Path | IO[str]) -> None:
    """Line-delimited records: ``epoch,graph_id,total_fill,L_a,L_c``."""
    with _open_text(target, "w") as fh:
        for entry in entries:
            fh.write(entry.format() + "\n")


def train(graphs: Sequence[SparsityPattern], cfg: TrainerConfig
          ) -> tuple[PolicyValueNet, list[TrainLogEntry]]:
    """Train a fresh network: one rollout and one optimizer step per episode.

    Fully reproducible for a given seed: initialization and action sampling
    draw from separate streams spawned from the config seed, consumed in a
    fixed sequential order. A non-finite loss or gradient raises a
    ``ValueError`` before the optimizer step, so the parameters and the last
    periodic checkpoint stay those of the last good episode.
    """
    if not graphs:
        raise ValueError("training set is empty")
    for graph_id, pattern in enumerate(graphs):
        # an empty episode has no steps to average its losses over
        if pattern.n < 1:
            raise ValueError(f"training graph {graph_id} has no nodes")
    init_seed, sample_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    net = PolicyValueNet(NetConfig(backbone=cfg.backbone),
                         np.random.default_rng(init_seed))
    sample_rng = np.random.default_rng(sample_seed)
    to_returns = adaptive_saturation_return if cfg.reward == "asr" else raw_return
    adam = AdamState(net)
    log: list[TrainLogEntry] = []
    episode = 0
    for epoch in range(1, cfg.epochs + 1):
        lr = learning_rate(epoch)
        for graph_id, pattern in enumerate(graphs):
            for _ in range(cfg.episodes_per_graph):
                trace, _ = rollout(net, pattern, sample_rng)
                returns = to_returns(trace.edges_before, trace.rewards)
                grads, values, log_probs = episode_gradients(net, pattern, trace, returns)
                l_a, l_c, _ = losses(log_probs, values, returns)
                bad = [name for name, arr in grads.items() if not np.all(np.isfinite(arr))]
                if not (np.isfinite(l_a) and np.isfinite(l_c)) or bad:
                    raise ValueError(
                        f"non-finite training values in epoch {epoch}, graph {graph_id} "
                        f"(losses {l_a:.6g}, {l_c:.6g}; non-finite gradients: "
                        f"{', '.join(bad) or 'none'})")
                adam.step(net, grads, lr)
                log.append(TrainLogEntry(epoch, graph_id, trace.total_fill, l_a, l_c))
                episode += 1
                if cfg.checkpoint_every > 0 and episode % cfg.checkpoint_every == 0:
                    save_checkpoint(net, cfg.checkpoint_path)
    return net, log
