"""Training loop for the learned elimination policy.

One episode fully eliminates one graph: at each step the actor scores the
live nodes, a node is sampled (or taken greedily at evaluation time), the
``EliminationGraph`` of ``symbolic`` eliminates it and returns the step's
fill, and the negative fill count is the reward. Once the live graph is
complete, every node left is a twin of every other, so the exact policy is
uniform and no step adds fill: the rollout evaluates the actor there once,
to refuse non-finite log-probs, and takes the rest of the nodes without
eliminating in the graph or evaluating the network. After the episode the
suffix-sum returns are squashed through the adaptive saturation map
(|E_t| + R_t) / (|E_t| - R_t), which lands in (-1, 1] and matches the
critic's tanh range, advantages weight the policy gradient, and one
optimizer step is applied per episode.

An episode keeps nothing but its ``EliminationTrace``: the node, fill and
edge count of each step. The rollout runs the actor alone. The gradient
pass replays the episode from the pattern, rebuilding each step's graph by
the rollout's own eliminations, and runs both towers through one
``evaluate`` and one ``backward`` per step; so it gets the rollout's floats
again and holds one step's graph and activations at a time. It stops
rebuilding at the first complete graph: the k rows of K_k are alike, so
each step from there on is one node, whose features depend only on whether
k is 1, 2 or at least 3. The tail is replayed as at most three one-node
passes, one per such class, each with the critic's upstreams of its steps
summed and no actor upstream, the actor's exact gradient there being zero;
every tail step's chosen log-prob is exactly -log k.

Where the process may run on two or more CPUs and can fork, ``train`` forks
one replay worker for the run, scheduled like any other process, and
splits each long enough episode's replay between the two processes at the
step ``_split_step`` picks to balance the work: this process replays the
steps before it, the worker the steps from it on. The floats cannot move:
``backward`` adds exactly one array into each gradient array (into each
hop's own columns of a weight) per pass, a step or a class of the tail, and
nothing it adds reads the sum, so the episode's gradient is the sum, in
step order, of per-pass arrays that can be computed anywhere. The split
never falls inside the tail, which goes to the process that replays its
first step. The worker computes each of its passes' into fresh zeros, and
adds them one by one, in step order, onto this process's sum once that
arrives. Besides its copy of this process from the fork, the worker holds
one episode's pattern and the per-pass gradients of its share, about 40 KB
per pass. Elsewhere the whole replay runs here, through the same function.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .features import NodeFeatures, compute_features, normalize_features
from .policy_net import (NetConfig, NetworkError, PolicyValueNet, backward,
                         check_operator_size, evaluate, forward, save_checkpoint,
                         tower_arrays)
from .sparsity import Ordering, SparsityPattern, open_text
from .symbolic import EliminationGraph, EliminationTrace

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

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


def _draw(log_probs: np.ndarray, rng: np.random.Generator) -> int:
    """The row ``rng.choice(k, p=probs)`` draws from these log-probabilities,
    by the same single ``rng.random()`` and search of the same cdf."""
    probs = np.exp(log_probs)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _not_finite(step: int) -> NetworkError:
    return NetworkError(f"the policy's log-probabilities are not finite at step {step}")


def rollout(net: PolicyValueNet, pattern: SparsityPattern,
            rng: np.random.Generator | None = None) -> tuple[EliminationTrace, Ordering]:
    """Run one full elimination episode in the ``EliminationGraph`` of the
    pattern, the actor choosing the row that each step eliminates.

    Only the actor is evaluated, and the episode keeps only its trace.
    With an rng it samples, by one ``rng.random()`` per step as
    ``rng.choice(k, p=probs)`` draws; without one it is greedy: the argmax,
    lowest index on ties (row order is sorted node ids).

    Once the live graph is complete (k nodes, k(k-1)/2 edges), its nodes are
    all twins, so the exact policy is uniform and every step left adds no
    fill. The actor is evaluated on that state once and not again: greedy
    takes the remaining nodes in ascending order, the lowest-index
    tie-break decided by structure rather than by rounding, and sampling
    draws each step's row from exactly uniform probabilities, one
    ``rng.random()`` per step as before.

    An empty pattern gives an empty trace and ordering. A chosen log-prob
    that is not finite, or any on the first complete state, raises
    ``NetworkError`` (NaN logits make them all NaN); so does a pattern too
    large for the dense operator (``check_operator_size``), before anything
    is built.
    """
    check_operator_size(pattern.n)
    trace = EliminationTrace()
    g = EliminationGraph.of(pattern)
    # logits that overflow give NaN log-probs, refused below with one error,
    # which numpy's own warnings would only precede
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(pattern.n):   # the last step, k = 1, is always complete
            k, m = len(g.nodes), g.num_edges
            log_probs = forward(net, normalize_features(compute_features(g)))
            if m == k * (k - 1) // 2:
                if not np.isfinite(log_probs).all():
                    raise _not_finite(step)
                break
            row = int(np.argmax(log_probs)) if rng is None else _draw(log_probs, rng)
            if not np.isfinite(log_probs[row]):
                raise _not_finite(step)
            node = g.nodes[row]
            g, fill = g.eliminate(row)
            trace.append(node, fill, m)
    # the complete tail: no fill, and each step leaves a complete graph
    rest = list(g.nodes)
    for k in range(len(rest), 0, -1):
        row = 0 if rng is None else _draw(np.full(k, -np.log(k)), rng)
        trace.append(rest.pop(row), 0, k * (k - 1) // 2)
    return trace, Ordering(trace.nodes, fill=trace.total_fill)


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


class ReplayError(RuntimeError):
    """The replay worker failed or stopped during an episode."""


# Replay cost of one step at k live nodes, in microseconds, fitted to the
# per-step times of sampled Delaunay episodes (n = 60-200, one BLAS thread,
# 2-CPU box): PATCH_US is the elimination that builds the next graph, a + b k,
# and STEP_US the towers' forward and backward, a + b k + c k^2, whose k^2
# term is the dense operator's products. HANDOFF_US is the time a message
# takes to reach the worker or come back, MERGE_US the worker's cost of
# adding one pass's gradient onto the parent's sum, and TAIL_US the complete
# tail's one-node passes, three for most episodes (0.9-1.5 ms measured).
PATCH_US = (30.0, 0.7)
STEP_US = (170.0, 0.75, 0.022)
HANDOFF_US = 600.0
MERGE_US = 12.0
TAIL_US = 1200.0


def _split_step(n: int, t_c: int) -> int:
    """The first step of an n-step episode, whose first complete step is
    ``t_c``, that the replay worker replays.

    The parent replays the steps before it. The worker starts a message
    later, eliminates its way to it and replays the rest, the complete tail
    as one unit of ``TAIL_US``; once both are done it adds its steps onto the
    parent's sum and sends that back. The step with the earliest modelled
    finish is taken, never one inside the tail, or n, so nothing goes to the
    worker, where handing the episode over would not finish sooner.
    """
    k = np.arange(n, n - t_c, -1, dtype=np.float64)   # live nodes at each step before the tail
    patch = PATCH_US[0] + PATCH_US[1] * k
    step = np.append(patch + STEP_US[0] + (STEP_US[1] + STEP_US[2] * k) * k, TAIL_US)
    parent = np.concatenate(([0.0], np.cumsum(step)))  # steps [0, t1) for t1 = 0..t_c, then all
    worker = HANDOFF_US + np.concatenate(([0.0], np.cumsum(patch))) + parent[-1] - parent[:-1]
    finish = np.maximum(parent[:-1], worker) + MERGE_US * np.arange(t_c + 1, 0, -1) + HANDOFF_US
    t1 = int(finish.argmin())
    return t1 if finish[t1] < parent[-1] else n


def _first_complete_step(trace: EliminationTrace) -> int:
    """The first step whose live graph is complete, k nodes and k(k-1)/2
    edges, where the rollout stops evaluating; n for an empty episode."""
    n = len(trace)
    return next((t for t, m in enumerate(trace.edges_before)
                 if m == (n - t) * (n - t - 1) // 2), n)


def _complete_node(k: int) -> NodeFeatures:
    """One node whose towers are those of each row of the complete graph
    K_k, all alike: a row of K_k's normalized features on a graph of one
    node, whose operator [[1]] sums as each of K_k's operator rows does under
    either backbone. Both of K_k's feature columns are constant, so each
    normalizes to 1 where positive: (0, 0) at k = 1, (1, 0) at 2, (1, 1) from 3."""
    x = np.array([[k > 1, k > 2]], dtype=np.float64)
    return NodeFeatures(x, EliminationGraph.of(SparsityPattern(1)))


def _replay_steps(net: PolicyValueNet, pattern: SparsityPattern, trace: EliminationTrace,
                  returns: np.ndarray, start: int, stop: int,
                  grads: dict[str, np.ndarray] | None = None
                  ) -> tuple[list[float], list[float], list[dict[str, np.ndarray]]]:
    """Replay steps [start, stop) of an episode: the values, the chosen
    log-probs and, without ``grads``, each pass's own gradient.

    Step ``start``'s graph is rebuilt from the pattern by the rollout's
    eliminations, and each step's by one more, so the actor reads the
    rollout's floats again; features are computed from step ``start`` on.
    The advantage is the step's return minus the value, and the step's tape
    is freed before the next graph is built.

    No graph is built from the first complete step t_c on. The k rows of
    the complete graph K_k are all alike, so they are the towers of one
    node, ``_complete_node(k)``: each tail step's value is that node's, its
    chosen log-prob is exactly -log k, and the actor's exact gradient is
    zero. So the tail is one unit, replayed after step t_c - 1 by whichever
    call's range holds t_c: per run of steps whose nodes are alike (k >= 3,
    k = 2, k = 1), one ``evaluate`` of the one node and one ``backward``,
    with a zero actor upstream and, for the critic, the sum in step order
    of the run's steps' upstreams.
    """
    n = len(trace)
    t_c = _first_complete_step(trace)
    end = min(stop, t_c)
    values: list[float] = []
    chosen: list[float] = []
    kept: list[dict[str, np.ndarray]] = []
    g = EliminationGraph.of(pattern)
    for t, node in enumerate(trace.nodes[:end]):
        row = bisect_left(g.nodes, node)
        if t >= start:
            log_probs, v, tape = evaluate(net, normalize_features(compute_features(g)))
            adv = returns[t] - v
            d_log_probs = np.zeros_like(log_probs)
            d_log_probs[row] = -adv / n
            step = backward(net, tape, d_log_probs, -2.0 * adv / n, grads)
            del tape
            if grads is None:
                kept.append(step)
            values.append(v)
            chosen.append(float(log_probs[row]))
        if t + 1 < end:
            g, _ = g.eliminate(row)
    if start <= t_c < stop:
        for least, steps in groupby(range(t_c, n), key=lambda t: min(n - t, 3)):
            _, v, tape = evaluate(net, _complete_node(least))
            d_value = 0.0
            for t in steps:
                d_value += -2.0 * (returns[t] - v) / n
                values.append(v)
                chosen.append(float(0.0 - np.log(n - t)))   # +0.0 at k = 1, as log_softmax gives
            step = backward(net, tape, np.zeros(1), d_value, grads)
            if grads is None:
                kept.append(step)
    return values, chosen, kept


def episode_gradients(net: PolicyValueNet, pattern: SparsityPattern,
                      trace: EliminationTrace, returns: np.ndarray,
                      worker: Connection | None = None
                      ) -> tuple[dict[str, np.ndarray], list[float], list[float]]:
    """Accumulated gradients of L_actor + L_critic over all episode steps,
    the critic's value of each step, and the log-probability of each step's
    chosen node.

    Replays the episode from the pattern and adds each pass's gradient, a
    step's or a class of the complete tail's (``_replay_steps``), in step
    order, into one sum that starts at zero, in the layout of ``net.params``.
    With ``worker``, a connection from ``replay_worker``, the steps from
    ``_split_step(n, t_c)`` on are replayed there while this process
    replays the ones before, with the same floats (see the module docstring).
    """
    n = len(trace)
    if pattern.n != n or len(returns) != n:
        raise ValueError(f"an episode on {pattern.n} nodes needs {pattern.n} steps and "
                         f"returns, got {n} steps and {len(returns)} returns")
    grads = net.zero_grads()
    split = n if worker is None else _split_step(n, _first_complete_step(trace))
    if split < n:
        _message(worker.send, (net, pattern, trace, returns, split))
    values, chosen, _ = _replay_steps(net, pattern, trace, returns, 0, split, grads)
    if split < n:
        _message(worker.send, grads)
        reply = _message(worker.recv)
        if isinstance(reply, str):   # the worker's traceback
            raise ReplayError(f"the replay worker failed ({reply.splitlines()[-1]})"
                              ) from RuntimeError(reply)
        grads, later_values, later_chosen = reply
        values += later_values
        chosen += later_chosen
    return grads, values, chosen


def _message(transfer: Callable, *args):
    """One message to or from the replay worker; a closed pipe means it stopped."""
    try:
        return transfer(*args)
    except (EOFError, OSError) as exc:
        raise ReplayError(f"the replay worker stopped ({type(exc).__name__})") from exc


def _serve(conn: Connection, parent_end: Connection) -> None:
    """The replay worker's loop: one ``_replay_share`` per episode, until the
    parent closes its end. The fork's copy of that end is closed first, or
    it would keep the pipe open."""
    import signal   # the worker's imports stay out of `order` and `bench`
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent stops it
    with conn, suppress(EOFError):
        while True:
            conn.send(_replay_share(conn, *conn.recv()))


def _replay_share(conn: Connection, net: PolicyValueNet, pattern: SparsityPattern,
                  trace: EliminationTrace, returns: np.ndarray, start: int
                  ) -> tuple[dict[str, np.ndarray], list[float], list[float]] | str:
    """The worker's share of one episode: replay the steps from ``start`` on,
    each pass's gradient into fresh zeros (0 + x is x, and a sum that starts
    at +0.0 never holds -0.0, so a -0.0 turned +0.0 adds the same), then add
    them one by one, in step order, onto the parent's sum of the steps
    before, which it receives meanwhile. Returns that sum, the values and
    the chosen log-probs, or, if the replay raised, its traceback. The
    per-pass gradients go when it returns, before the next episode."""
    try:
        values, chosen, steps = _replay_steps(net, pattern, trace, returns, start, len(trace))
    except Exception:     # reported to the parent, which raises
        import traceback
        conn.recv()
        return traceback.format_exc()
    grads = conn.recv()
    for step in steps:
        for name, arr in step.items():
            grads[name] += arr
    return grads, values, chosen


@contextmanager
def replay_worker() -> Iterator[Connection | None]:
    """A forked process for ``episode_gradients`` to replay the later steps
    of each episode on, or None where the process may run on fewer than two
    CPUs or cannot fork. No CPU affinity is set: both processes go where the
    scheduler puts them. The worker holds one episode's pattern and its
    per-pass gradients, about 40 KB per pass. It is stopped and joined on
    exit, and killed first if the body raised."""
    import multiprocessing   # here, so that `order` and `bench` never load it
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(cpus) < 2 or "fork" not in multiprocessing.get_all_start_methods():
        yield None
        return
    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe()
    process = ctx.Process(target=_serve, args=(child_end, conn), daemon=True)
    process.start()
    child_end.close()
    try:
        yield conn
    except BaseException:
        process.kill()
        raise
    finally:
        conn.close()     # ends the worker's loop
        process.join()


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
    with open_text(target, "w") as fh:
        for entry in entries:
            fh.write(entry.format() + "\n")


def train(graphs: Sequence[SparsityPattern], cfg: TrainerConfig
          ) -> tuple[PolicyValueNet, list[TrainLogEntry]]:
    """Train a fresh network: one rollout and one optimizer step per episode.

    Fully reproducible for a given seed: initialization and action sampling
    draw from separate streams spawned from the config seed, consumed in a
    fixed sequential order. A graph without nodes or too large for the
    dense operator raises a ``ValueError`` before the first episode. A
    non-finite loss or gradient raises one before the optimizer step, so the
    parameters and the last periodic checkpoint stay those of the last good
    episode.
    """
    if not graphs:
        raise ValueError("training set is empty")
    for graph_id, pattern in enumerate(graphs):
        # an empty episode has no steps to average its losses over
        if pattern.n < 1:
            raise ValueError(f"training graph {graph_id} has no nodes")
        try:
            check_operator_size(pattern.n)
        except NetworkError as exc:
            raise NetworkError(f"training graph {graph_id}: {exc}") from None
    init_seed, sample_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    net = PolicyValueNet(NetConfig(backbone=cfg.backbone),
                         np.random.default_rng(init_seed))
    sample_rng = np.random.default_rng(sample_seed)
    to_returns = adaptive_saturation_return if cfg.reward == "asr" else raw_return
    adam = AdamState(net)
    log: list[TrainLogEntry] = []
    episode = 0
    with replay_worker() as worker:
        for epoch in range(1, cfg.epochs + 1):
            lr = learning_rate(epoch)
            for graph_id, pattern in enumerate(graphs):
                for _ in range(cfg.episodes_per_graph):
                    trace, _ = rollout(net, pattern, sample_rng)
                    returns = to_returns(trace.edges_before, trace.rewards)
                    try:
                        grads, values, log_probs = episode_gradients(net, pattern, trace,
                                                                     returns, worker)
                    except ReplayError as exc:
                        raise ReplayError(f"{exc} in epoch {epoch}, graph {graph_id}") from exc
                    l_a, l_c, _ = losses(log_probs, values, returns)
                    bad = [name for name, arr in tower_arrays(grads) if not np.isfinite(arr).all()]
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
