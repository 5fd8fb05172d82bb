"""Training loop for the learned elimination policy.

One episode fully eliminates one graph: at each step the actor scores the
live nodes, a node is sampled (or taken greedily at evaluation time), the
environment eliminates it, and the negative fill count is the reward. After
the episode the suffix-sum returns are squashed through the adaptive
saturation map (|E_t| + R_t) / (|E_t| - R_t), which lands in (-1, 1] and
matches the critic's tanh range, advantages weight the policy gradient, and
one optimizer step is applied per episode.

A sampled step keeps only the snapshot the actor read (its normalized
``NodeFeatures``: features and int32 live adjacency), not the network's
activations. The gradient pass replays the episode one step at a time,
calling the same ``forward`` on the same snapshot and then the critic, so it
gets the rollout's floats again and holds one step's activations at a time
instead of one dense operator per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .features import NodeFeatures, compute_features, normalize_features
from .policy_net import (NetConfig, PolicyValueNet, backward, forward,
                         save_checkpoint, value)
from .sparsity import Ordering, SparsityPattern, _open_text
from .symbolic import EliminationGraph, EliminationTrace, eliminate_all

REWARD_VARIANTS = ("asr", "raw")

# Adam moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainerConfig:
    epochs: int = 1
    episodes_per_graph: int = 1
    lr_first_epoch: float = 0.01
    lr_rest: float = 0.001
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
    """What one gradient update needs from a single rollout: the actor's
    per-step choices, each sampled step's snapshot, and the episode's
    elimination trace, which holds the fill counts and edge counts. Greedy
    rollouts keep no snapshots."""

    chosen_rows: list[int] = field(default_factory=list)   # row index in live order
    log_probs: list[float] = field(default_factory=list)   # log pi(v_t | G_t)
    states: list[NodeFeatures] = field(default_factory=list)
    trace: EliminationTrace = field(default_factory=EliminationTrace)

    def __len__(self) -> int:
        return len(self.log_probs)


def rollout(net: PolicyValueNet, pattern: SparsityPattern,
            rng: np.random.Generator | None, greedy: bool = False
            ) -> tuple[EpisodeRecord, Ordering]:
    """Run one full elimination episode against the symbolic environment.

    Only the actor is evaluated. Sampling draws from the policy distribution
    and keeps each step's normalized features for ``episode_gradients``; greedy
    mode takes the argmax with lowest-index tie-break (row order is sorted
    node ids), needs no rng, and keeps no states.
    An empty pattern gives an empty record and ordering.
    """
    if not greedy and rng is None:
        raise ValueError("sampling rollout needs an rng")
    record = EpisodeRecord()

    def choose(g: EliminationGraph) -> int:
        x = normalize_features(compute_features(g))
        log_probs, _ = forward(net, x)
        if greedy:
            row = int(np.argmax(log_probs))
        else:
            probs = np.exp(log_probs)
            probs /= probs.sum()
            row = int(rng.choice(len(probs), p=probs))
            record.states.append(x)
        record.chosen_rows.append(row)
        record.log_probs.append(float(log_probs[row]))
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


def losses(record: EpisodeRecord, values: Sequence[float], returns: np.ndarray
           ) -> tuple[float, float, np.ndarray]:
    """Actor loss, critic loss, and the per-step advantages.

    Advantages are returns minus the critic's ``values`` and act as
    constants in the actor loss; the critic loss is their mean square, with
    gradient flowing through the value estimates only.
    """
    if len(returns) != len(record) or len(values) != len(record):
        raise ValueError("returns or values length does not match the episode length")
    adv = returns - np.asarray(values, dtype=np.float64)
    logp = np.asarray(record.log_probs, dtype=np.float64)
    l_actor = float(-(logp * adv).mean())
    l_critic = float((adv * adv).mean())
    return l_actor, l_critic, adv


def episode_gradients(net: PolicyValueNet, record: EpisodeRecord,
                      returns: np.ndarray
                      ) -> tuple[dict[str, np.ndarray], list[float]]:
    """Accumulated gradients of L_actor + L_critic over all episode steps,
    and the critic's value of each step.

    Replays the sampled episode one step at a time: ``forward`` runs again
    on the snapshot the rollout's ``forward`` read, so every float is the
    one a kept tape would have held, and the critic completes the tape. The
    advantage is the step's return minus that value, and the step's tape is
    freed before the next one is built.
    """
    n = len(record)
    if len(returns) != n or len(record.states) != n:
        raise ValueError(f"an episode of {n} steps needs {n} returns and {n} "
                         f"recorded states, got {len(returns)} and {len(record.states)}")
    grads = net.zero_grads()
    values: list[float] = []
    for row, state, ret in zip(record.chosen_rows, record.states, returns):
        log_probs, tape = forward(net, state)
        v = value(net, tape)
        adv = ret - v
        d_log_probs = np.zeros_like(log_probs)
        d_log_probs[row] = -adv / n
        backward(net, tape, d_log_probs, -2.0 * adv / n, grads)
        del tape
        values.append(v)
    return grads, values


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
    adam = AdamState(net)
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
                grads, values = episode_gradients(net, record, returns)
                l_a, l_c, _ = losses(record, values, returns)
                bad = [name for name, arr in grads.items() if not np.all(np.isfinite(arr))]
                if not (np.isfinite(l_a) and np.isfinite(l_c)) or bad:
                    raise ValueError(
                        f"non-finite training values in epoch {epoch}, graph {graph_id} "
                        f"(losses {l_a:.6g}, {l_c:.6g}; non-finite gradients: "
                        f"{', '.join(bad) or 'none'})")
                adam.step(net, grads, lr)
                log.append(TrainLogEntry(epoch, graph_id, record.trace.total_fill,
                                         l_a, l_c))
                episode += 1
                if (cfg.checkpoint_every > 0 and cfg.checkpoint_path
                        and episode % cfg.checkpoint_every == 0):
                    save_checkpoint(net, cfg.checkpoint_path)
    return net, log
