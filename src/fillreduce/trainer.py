"""Training loop for the learned elimination policy.

One episode fully eliminates one graph: at each step the actor scores the
live nodes, a node is sampled (or taken greedily at evaluation time), the
environment eliminates it, and the negative fill count is the reward. After
the episode the suffix-sum returns are squashed through the adaptive
saturation map (|E_t| + R_t) / (|E_t| - R_t), which lands in (-1, 1] and
matches the critic's tanh range, advantages weight the policy gradient, and
one optimizer step is applied per episode.

A sampled step keeps only a compact state (its normalized features and live
adjacency), not the network's activations: the gradient pass replays the
episode one step at a time, evaluating the actor and the critic again on
each state, so an episode holds one step's activations at a time instead of
one dense operator per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .features import (LiveAdjacency, NodeFeatures, compute_features,
                       normalize_features)
from .policy_net import (NetConfig, PolicyValueNet, actor_forward, backward,
                         forward, save_checkpoint, value)
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


@dataclass(frozen=True)
class StepState:
    """The state of one sampled step, as much as replaying it needs: the
    normalized features and the live adjacency as degrees plus neighbour
    rows, both int32; the row of each entry follows from the degrees."""

    x: np.ndarray
    degree: np.ndarray
    cols: np.ndarray

    @classmethod
    def of(cls, features: NodeFeatures) -> "StepState":
        adj = features.adjacency
        return cls(features.x, adj.degree.astype(np.int32), adj.cols.astype(np.int32))

    def adjacency(self) -> LiveAdjacency:
        rows = np.repeat(np.arange(len(self.degree)), self.degree)
        return LiveAdjacency(self.degree, rows, self.cols)


@dataclass
class EpisodeRecord:
    """Everything one gradient update needs from a single rollout: the
    actor's per-step choices, each sampled step's state, and the episode's
    elimination trace, which holds the rewards and edge counts. The rollout
    evaluates only the actor; ``values`` is filled from the critic values
    that ``episode_gradients`` computes. Greedy rollouts keep no states."""

    chosen_rows: list[int] = field(default_factory=list)   # row index in live order
    log_probs: list[float] = field(default_factory=list)   # log pi(v_t | G_t)
    values: list[float] = field(default_factory=list)      # V(G_t)
    states: list[StepState] = field(default_factory=list)
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

    Only the actor is evaluated. Sampling draws from the policy distribution
    and keeps each step's ``StepState`` for ``episode_gradients``; greedy
    mode takes the argmax with lowest-index tie-break (row order is sorted
    node ids), needs no rng, and keeps no states.
    An empty pattern gives an empty record and ordering.
    """
    if not greedy and rng is None:
        raise ValueError("sampling rollout needs an rng")
    record = EpisodeRecord()

    def choose(g: EliminationGraph) -> int:
        x = normalize_features(compute_features(g))
        log_probs, _ = forward(net, g, x)
        if greedy:
            row = int(np.argmax(log_probs))
        else:
            probs = np.exp(log_probs)
            probs /= probs.sum()
            row = int(rng.choice(len(probs), p=probs))
            record.states.append(StepState.of(x))
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


def losses(record: EpisodeRecord, returns: np.ndarray
           ) -> tuple[float, float, np.ndarray]:
    """Actor loss, critic loss, and the per-step advantages.

    Advantages are returns minus the value estimates in ``record.values``
    and act as constants in the actor loss; the critic loss is their mean
    square, with gradient flowing through the value estimates only.
    """
    if len(returns) != len(record):
        raise ValueError("returns length does not match the episode length")
    adv = returns - np.asarray(record.values, dtype=np.float64)
    logp = np.asarray(record.log_probs, dtype=np.float64)
    l_actor = float(-(logp * adv).mean())
    l_critic = float((adv * adv).mean())
    return l_actor, l_critic, adv


def episode_gradients(net: PolicyValueNet, record: EpisodeRecord,
                      returns: np.ndarray
                      ) -> tuple[dict[str, np.ndarray], list[float]]:
    """Accumulated gradients of L_actor + L_critic over all episode steps,
    and the critic's value of each step.

    Replays the sampled episode one step at a time: the actor and the critic
    run again on the step's recorded state, through the same functions as in
    the rollout, so every float is the one a kept tape would have held. The
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
        log_probs, tape = actor_forward(net, state.x, state.adjacency())
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
                grads, record.values = episode_gradients(net, record, returns)
                l_a, l_c, _ = losses(record, returns)
                bad = [name for name, arr in grads.items() if not np.all(np.isfinite(arr))]
                if not (np.isfinite(l_a) and np.isfinite(l_c)) or bad:
                    raise ValueError(
                        f"non-finite training values in epoch {epoch}, graph {graph_id} "
                        f"(losses {l_a:.6g}, {l_c:.6g}; non-finite gradients: "
                        f"{', '.join(bad) or 'none'})")
                adam.step(net, grads, lr)
                log.append(TrainLogEntry(epoch, graph_id, record.total_fill, l_a, l_c))
                episode += 1
                if (cfg.checkpoint_every > 0 and cfg.checkpoint_path
                        and episode % cfg.checkpoint_every == 0):
                    save_checkpoint(net, cfg.checkpoint_path)
    return net, log
