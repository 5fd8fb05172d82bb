"""Training loop for the learned elimination policy.

One episode fully eliminates one graph: at each step the network scores the
live nodes, a node is sampled (or taken greedily at evaluation time), the
environment eliminates it, and the negative fill count is the reward. After
the episode the suffix-sum returns are squashed through the adaptive
saturation map (|E_t| + R_t) / (|E_t| - R_t), which lands in (-1, 1] and
matches the critic's tanh range, advantages weight the policy gradient, and
one optimizer step is applied per episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .features import compute_features, normalize_features
from .policy_net import (ForwardTape, NetConfig, PolicyValueNet, backward,
                         forward, save_checkpoint)
from .sparsity import Ordering, SparsityPattern, _open_text
from .symbolic import EliminationGraph, EliminationTrace, eliminate_all

REWARD_VARIANTS = ("asr", "raw")


@dataclass
class TrainerConfig:
    epochs: int = 1
    episodes_per_graph: int = 1
    lr_first_epoch: float = 0.01
    lr_rest: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    backbone: str = "mixhop"
    reward: str = "asr"          # "asr" or "raw" (ablation)
    checkpoint_every: int = 0    # episodes; 0 disables periodic checkpoints
    checkpoint_path: str | None = None

    def __post_init__(self):
        # zero is tolerated as a diagnostic no-op schedule
        if self.lr_first_epoch < 0 or self.lr_rest < 0:
            raise ValueError("learning rates must not be negative")
        if self.epochs < 1 or self.episodes_per_graph < 1:
            raise ValueError("epochs and episodes per graph must be at least 1")
        if self.reward not in REWARD_VARIANTS:
            raise ValueError(f"unknown reward variant {self.reward!r}")

    def learning_rate(self, epoch: int) -> float:
        """Schedule: one rate for the first full pass, a lower one after."""
        return self.lr_first_epoch if epoch == 1 else self.lr_rest


@dataclass
class EpisodeRecord:
    """Everything one gradient update needs from a single rollout: the
    policy's per-step outputs plus the episode's elimination trace, which
    holds the rewards and edge counts. Greedy rollouts keep no tapes."""

    chosen_rows: list[int] = field(default_factory=list)   # row index in live order
    log_probs: list[float] = field(default_factory=list)   # log pi(v_t | G_t)
    values: list[float] = field(default_factory=list)
    tapes: list[ForwardTape] = field(default_factory=list)
    trace: EliminationTrace = field(default_factory=EliminationTrace)

    def __len__(self) -> int:
        return len(self.log_probs)

    @property
    def total_fill(self) -> int:
        return self.trace.total_fill


def rollout(net: PolicyValueNet, pattern: SparsityPattern,
            rng: np.random.Generator | None, greedy: bool = False
            ) -> tuple[EpisodeRecord, Ordering]:
    """Run one full elimination episode against the symbolic environment.

    Sampling draws from the policy distribution and keeps each step's tape
    for ``episode_gradients``; greedy mode takes the argmax with lowest-index
    tie-break (row order is sorted node ids), needs no rng and keeps no tapes.
    """
    if pattern.n < 1:
        raise ValueError("rollout needs a pattern with at least one node")
    if not greedy and rng is None:
        raise ValueError("sampling rollout needs an rng")
    record = EpisodeRecord()

    def choose(g: EliminationGraph) -> int:
        x = normalize_features(compute_features(g))
        log_probs, value, tape = forward(net, g, x)
        if greedy:
            row = int(np.argmax(log_probs))
        else:
            probs = np.exp(log_probs)
            probs /= probs.sum()
            row = int(rng.choice(len(probs), p=probs))
            record.tapes.append(tape)
        record.chosen_rows.append(row)
        record.log_probs.append(float(log_probs[row]))
        record.values.append(value)
        return x.nodes[row]

    record.trace = eliminate_all(pattern, choose)
    return record, Ordering(record.trace.nodes)


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


def losses(record: EpisodeRecord, returns: np.ndarray
           ) -> tuple[float, float, np.ndarray]:
    """Actor loss, critic loss, and the per-step advantages.

    Advantages are returns minus value estimates and act as constants in the
    actor loss; the critic loss is their mean square, with gradient flowing
    through the value estimates only.
    """
    if len(returns) != len(record):
        raise ValueError("returns length does not match the episode length")
    adv = returns - np.asarray(record.values, dtype=np.float64)
    logp = np.asarray(record.log_probs, dtype=np.float64)
    l_actor = float(-(logp * adv).mean())
    l_critic = float((adv * adv).mean())
    return l_actor, l_critic, adv


def episode_gradients(net: PolicyValueNet, record: EpisodeRecord,
                      adv: np.ndarray) -> dict[str, np.ndarray]:
    """Accumulated gradients of L_actor + L_critic over all episode steps."""
    n = len(record)
    grads = net.zero_grads()
    for t in range(n):
        tape = record.tapes[t]
        d_log_probs = np.zeros_like(tape.log_probs)
        d_log_probs[record.chosen_rows[t]] = -adv[t] / n
        d_value = -2.0 * adv[t] / n
        step = backward(net, tape, d_log_probs, d_value)
        for name, arr in step.items():
            grads[name] += arr
    return grads


class AdamState:
    """Adaptive moment estimation with bias correction."""

    def __init__(self, net: PolicyValueNet, cfg: TrainerConfig):
        self.m = net.zero_grads()
        self.v = net.zero_grads()
        self.t = 0
        self.beta1 = cfg.beta1
        self.beta2 = cfg.beta2
        self.eps = cfg.eps

    def step(self, net: PolicyValueNet, grads: dict[str, np.ndarray],
             lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, g in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            net.params[name] -= lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


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
    fixed sequential order.
    """
    if not graphs:
        raise ValueError("training set is empty")
    init_seed, sample_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    net = PolicyValueNet(NetConfig(backbone=cfg.backbone),
                         np.random.default_rng(init_seed))
    sample_rng = np.random.default_rng(sample_seed)
    adam = AdamState(net, cfg)
    log: list[TrainLogEntry] = []
    episode = 0
    for epoch in range(1, cfg.epochs + 1):
        lr = cfg.learning_rate(epoch)
        for graph_id, pattern in enumerate(graphs):
            for _ in range(cfg.episodes_per_graph):
                record, _ = rollout(net, pattern, sample_rng)
                to_returns = (adaptive_saturation_return if cfg.reward == "asr"
                              else raw_return)
                returns = to_returns(record.trace.edges_before, record.trace.rewards)
                l_a, l_c, adv = losses(record, returns)
                grads = episode_gradients(net, record, adv)
                adam.step(net, grads, lr)
                log.append(TrainLogEntry(epoch, graph_id, record.total_fill, l_a, l_c))
                episode += 1
                if (cfg.checkpoint_every > 0 and cfg.checkpoint_path
                        and episode % cfg.checkpoint_every == 0):
                    save_checkpoint(net, cfg.checkpoint_path)
    return net, log
