import dataclasses
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (ReferenceGraph, blow_up_actor, clique_pattern, eliminated_graph,
                      environment_edges, fill_edges, fill_steps, first_complete_step,
                      gradients, path_pattern, pattern_features, patterns, random_pattern,
                      reference_episode, reference_features, reference_rollout,
                      snapshot_edges, star_pattern, tie_heavy_patterns, twin_heavy_patterns)
from fillreduce import (EliminationTrace, NetworkError, SparsityPattern,
                        TrainerConfig, adaptive_saturation_return, compute_features,
                        count_fill,
                        evaluate, forward, generate_delaunay, policy_net,
                        generate_training_set, losses, normalize_features,
                        raw_return, rollout, symbolic_factorize, train, trainer)
from fillreduce.policy_net import (BACKBONES, NetConfig, PolicyValueNet, load_checkpoint,
                                   tower_arrays)
from fillreduce.trainer import (ADAM_EPS, LR_FIRST_EPOCH, LR_REST, AdamState,
                               TrainLogEntry, episode_gradients, learning_rate,
                               write_training_log)


def fresh_net(seed=0):
    return PolicyValueNet(NetConfig(), rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# adaptive saturation return
# ---------------------------------------------------------------------------

def test_asr_direct_evaluation():
    # |E| = 10 with 5 future fill edges: (10 - 5) / (10 + 5)
    asr = adaptive_saturation_return([10], [-5])
    assert asr[0] == pytest.approx(1.0 / 3.0)


def test_asr_no_future_fill_is_one():
    asr = adaptive_saturation_return([10, 4, 1], [0, 0, 0])
    assert asr.tolist() == [1.0, 1.0, 1.0]


def test_asr_degenerate_zero_over_zero_is_one():
    asr = adaptive_saturation_return([3, 0, 0], [-0, 0, 0])
    assert asr[1] == 1.0 and asr[2] == 1.0


def test_asr_uses_suffix_sums():
    # R = [-6, -5, -2, 0]
    asr = adaptive_saturation_return([8, 6, 5, 3], [-1, -3, -2, 0])
    expected = [(8 - 6) / (8 + 6), (6 - 5) / (6 + 5), (5 - 2) / (5 + 2), 1.0]
    assert np.allclose(asr, expected)


def test_asr_bounds_on_random_traces():
    rng = np.random.default_rng(41)
    net = fresh_net(3)
    for _ in range(20):
        p = random_pattern(rng, int(rng.integers(1, 15)))
        trace, _ = rollout(net, p, rng)
        asr = adaptive_saturation_return(trace.edges_before, trace.rewards)
        assert np.all(asr > -1.0) and np.all(asr <= 1.0)
        suffix = np.cumsum(np.array(trace.rewards)[::-1])[::-1]
        assert np.array_equal(asr == 1.0, suffix == 0)


def test_asr_length_mismatch():
    with pytest.raises(ValueError):
        adaptive_saturation_return([1, 2], [0])


def test_raw_return_scales_by_initial_edges():
    raw = raw_return([4, 3, 1], [-2, -1, 0])
    assert raw.tolist() == [-0.75, -0.25, 0.0]
    # edgeless graph falls back to the max(1, .) guard
    assert raw_return([0, 0], [0, 0]).tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_losses_zero_advantage():
    returns = np.array([0.5, -0.25, 1.0])
    l_a, l_c, adv = losses([-1.0, -2.0, -0.5], returns, returns)
    assert l_a == 0.0 and l_c == 0.0
    assert np.all(adv == 0.0)


def test_losses_single_step_arithmetic():
    l_a, l_c, adv = losses([-0.5], [0.0], np.array([1.0]))
    assert l_a == pytest.approx(0.5)
    assert l_c == pytest.approx(1.0)
    assert adv.tolist() == [1.0]


def test_losses_critic_is_mean_squared_advantage():
    rng = np.random.default_rng(42)
    returns = rng.normal(size=6)
    _, l_c, adv = losses(rng.normal(size=6), rng.normal(size=6), returns)
    assert l_c == pytest.approx(float((adv ** 2).mean()))


def test_losses_value_shift_identity():
    rng = np.random.default_rng(43)
    returns = rng.normal(size=5)
    values = rng.normal(size=5)
    delta = 0.37
    _, l_c, adv = losses(np.zeros(5), values, returns)
    _, l_c_shifted, _ = losses(np.zeros(5), values + delta, returns)
    assert l_c_shifted - l_c == pytest.approx(
        float(((adv - delta) ** 2).mean() - (adv ** 2).mean()))


def test_losses_length_mismatch():
    with pytest.raises(ValueError):
        losses([0.0], [0.0], np.zeros(2))
    with pytest.raises(ValueError):
        losses([0.0], [0.0, 0.0], np.zeros(1))


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

def test_rollout_single_node():
    trace, ordering = rollout(fresh_net(), SparsityPattern(1, []),
                              np.random.default_rng(0))
    assert len(trace) == 1
    assert trace.rewards == [0]
    assert list(ordering) == [0]


@st.composite
def rollout_cases(draw):
    """A pattern from ``patterns()`` or ``tie_heavy_patterns()``, or a seeded
    Delaunay graph, and the seeds of a network and of a sampling rng."""
    kind = draw(st.sampled_from(["random", "tie_heavy", "delaunay"]))
    if kind == "random":
        p = draw(patterns(max_n=20))
    elif kind == "tie_heavy":
        p = draw(tie_heavy_patterns())
    else:
        p = generate_delaunay(draw(st.integers(3, 80)),
                              np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    return p, draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100, deadline=None)
@example((star_pattern(3), 5, 44))
@example((SparsityPattern(0), 0, 0))
@example((SparsityPattern(1), 0, 0))
@given(rollout_cases())
def test_rollout_matches_symbolic_factorization(case):
    # the rollout's fill count m' - m + d, per step, against the reference
    # graph's fill edges
    p, net_seed, rng_seed = case
    net = fresh_net(net_seed)
    for rng in (None, np.random.default_rng(rng_seed)):
        got, ordering = rollout(net, p, rng)
        trace = symbolic_factorize(p, ordering)
        assert got.nodes == trace.nodes == list(ordering)
        assert got.fill == trace.fill
        assert got.edges_before == trace.edges_before
        assert got.total_fill == len(fill_edges(p, ordering))
        assert got.fill == [len(f) for f in fill_steps(p, ordering)]


@settings(max_examples=30, deadline=None)
@example((clique_pattern(6), 3, 4))   # complete from the start
@example((SparsityPattern(0), 0, 0))
@example((SparsityPattern(1), 0, 0))
@given(rollout_cases())
def test_rollout_ordering_carries_the_episode_fill(case):
    p, net_seed, rng_seed = case
    net = fresh_net(net_seed)
    for rng in (None, np.random.default_rng(rng_seed)):
        trace, ordering = rollout(net, p, rng)
        assert ordering.fill == trace.total_fill == count_fill(p, ordering)


def test_rollout_greedy_is_deterministic_and_needs_no_rng():
    net = fresh_net(6)
    p = random_pattern(np.random.default_rng(45), 10)
    _, first = rollout(net, p, rng=None)
    _, second = rollout(net, p, rng=None)
    assert first == second
    trace, empty = rollout(net, SparsityPattern(0, []), np.random.default_rng(0))
    assert len(trace) == 0
    assert list(empty) == []


def test_rollout_keeps_only_its_trace():
    net = fresh_net(8)
    p = random_pattern(np.random.default_rng(47), 10)
    for rng in (None, np.random.default_rng(48)):
        trace, _ = rollout(net, p, rng)
        assert type(trace) is EliminationTrace
        # three ints per step: no tape, no snapshot, no array
        for f in dataclasses.fields(trace):
            kept = getattr(trace, f.name)
            assert len(kept) == 10 and all(type(item) is int for item in kept)


@pytest.mark.parametrize("greedy", [True, False])
def test_rollout_never_evaluates_the_critic(greedy, monkeypatch):
    def no_critic(*args):
        raise AssertionError("the rollout ran evaluate, which runs the critic")

    monkeypatch.setattr(trainer, "evaluate", no_critic)
    net = fresh_net(9)
    blind = PolicyValueNet(net.config, params=net.params)
    for name, arr in tower_arrays(blind.params):
        if name.startswith("critic."):
            arr[...] = np.nan
    p = random_pattern(np.random.default_rng(49), 12)
    rng = lambda: None if greedy else np.random.default_rng(50)
    expected, ordering = rollout(net, p, rng())
    trace, blind_ordering = rollout(blind, p, rng())
    assert blind_ordering == ordering
    assert trace == expected


def expected_rollout(net, pattern, seed, greedy):
    """The rollout's nodes by the rule it keeps: the reference rollout's up to
    the first complete state, then the rest ascending, or each drawn by
    ``rng.choice`` from the normalized uniform probabilities; the reference's
    trace; and a generator that made the rollout's draws, or None."""
    ref, _ = reference_rollout(net, pattern, None if greedy else np.random.default_rng(seed),
                               greedy)
    t_c = first_complete_step(ref)
    rng = None if greedy else np.random.default_rng(seed)
    for _ in range(0 if greedy else t_c):
        rng.random()     # rng.choice draws one double per step
    nodes = ref.nodes[:t_c]
    rest = sorted(set(range(pattern.n)) - set(nodes))
    for k in range(len(rest), 0, -1):
        if greedy:
            row = 0
        else:
            probs = np.exp(np.full(k, -np.log(k)))
            row = int(rng.choice(k, p=probs / probs.sum()))
        nodes.append(rest.pop(row))
    return nodes, ref, rng


@settings(max_examples=200, deadline=None)
@given(patterns(max_n=14), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 1.0, 30.0, 1e3]))
def test_sampled_rollout_draws_as_generator_choice(pattern, seed, sharpness):
    # one rng.random() per step and a search of the same cdf: the same row as
    # rng.choice(k, p=probs), and the generator left in the same state. A
    # large head weight makes peaked distributions, and 0 a uniform one.
    net = fresh_net(seed % 7)
    net.params["head.w"][0] *= sharpness   # the actor's
    drawn = np.random.default_rng(seed)
    _, ordering = rollout(net, pattern, drawn)
    nodes, _, chosen = expected_rollout(net, pattern, seed, greedy=False)
    assert list(ordering) == nodes
    assert drawn.random() == chosen.random()


@st.composite
def tail_cases(draw):
    """A case of ``rollout_cases`` or a ``twin_heavy_patterns()`` graph."""
    if draw(st.booleans()):
        return draw(rollout_cases())
    return (draw(twin_heavy_patterns()), draw(st.integers(0, 2 ** 32 - 1)),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=150, deadline=None)
@example((clique_pattern(6), 0, 0), True)
@example((clique_pattern(6), 0, 0), False)
@example((path_pattern(7), 1, 1), False)
@example((SparsityPattern(0), 0, 0), False)
@given(tail_cases(), st.booleans())
def test_rollout_ends_at_the_first_complete_state(case, greedy):
    # the reference's rows up to the first complete state, then the tail rule
    # with no fill; the actor evaluated on that state once and never after
    p, net_seed, seed = case
    net = fresh_net(net_seed)
    drawn = None if greedy else np.random.default_rng(seed)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "forward", lambda *args: calls.append(1) or forward(*args))
        trace, ordering = rollout(net, p, drawn)
    nodes, reference, rng = expected_rollout(net, p, seed, greedy)
    t_c = first_complete_step(reference)
    assert trace.nodes[:t_c] == reference.nodes[:t_c]
    assert trace.fill[:t_c] == reference.fill[:t_c]
    assert trace.nodes == list(ordering) == nodes
    assert first_complete_step(trace) == t_c
    assert len(calls) == min(t_c + 1, p.n)
    k = np.arange(p.n - t_c, 0, -1)
    assert trace.fill[t_c:] == [0] * len(k)
    assert trace.edges_before[t_c:] == (k * (k - 1) // 2).tolist()
    if greedy:
        assert trace.nodes[t_c:] == sorted(trace.nodes[t_c:])
    else:
        assert drawn.random() == rng.random()


@pytest.mark.parametrize("greedy", [True, False])
def test_rollout_evaluates_the_actor_up_to_the_first_complete_step(greedy, monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "forward", lambda *args: calls.append(1) or forward(*args))
    net = fresh_net(11)
    for p, want in [(clique_pattern(6), 1), *((path_pattern(n), n - 1) for n in (2, 5, 12))]:
        calls.clear()
        trace, _ = rollout(net, p, None if greedy else np.random.default_rng(p.n))
        assert len(calls) == want == first_complete_step(trace) + 1


@pytest.mark.parametrize("backbone", BACKBONES)
def test_fresh_actor_is_uniform_on_complete_graphs(backbone):
    # the fact the tail rule rests on: every node of a complete graph is a
    # twin of every other, so the exact policy is uniform; the network's is
    # uniform up to rounding
    nets = [PolicyValueNet(NetConfig(backbone=backbone), rng=np.random.default_rng(seed))
            for seed in (0, 1, 2)]
    for k in [*range(1, 65), 100, 250, 400]:
        state = normalize_features(pattern_features(clique_pattern(k)))
        for net in nets:
            log_probs = forward(net, state)
            assert np.isfinite(log_probs).all()
            assert np.abs(log_probs + np.log(k)).max() <= 1e-12, (k, backbone)


@pytest.mark.parametrize("greedy", [True, False])
@pytest.mark.parametrize("pattern", [path_pattern(4), SparsityPattern(1),
                                     *(clique_pattern(k) for k in range(2, 6))],
                         ids=["path4", "one_node", "clique2", "clique3", "clique4", "clique5"])
def test_rollout_refuses_non_finite_log_probs(greedy, pattern):
    # a pattern that starts complete is refused on its one actor evaluation
    net = blow_up_actor(fresh_net(3))
    assert all(np.isfinite(arr).all() for arr in net.params.values())
    rng = None if greedy else np.random.default_rng(0)
    with pytest.raises(NetworkError, match="not finite at step 0"):
        rollout(net, pattern, rng)


def test_train_stops_on_non_finite_log_probs(monkeypatch):
    real = policy_net._init_params
    monkeypatch.setattr(policy_net, "_init_params", lambda config, rng: blow_up_actor(
        PolicyValueNet(config, params=real(config, rng))).params)
    with pytest.raises(ValueError, match="not finite at step 0"):
        train([path_pattern(5)], TrainerConfig(seed=1))


def test_rollout_greedy_leaf_preferring_net_peels_path():
    # hand-built policy whose logit decreases with degree: layer 0 routes the
    # degree feature into one hidden unit with a large negative weight, layer 1
    # and the head pass it through
    net = fresh_net()
    for name, arr in net.params.items():
        arr[...] = 0.0
    net.params["layer0.w"][0, 0, 0] = -10.0   # the actor's slices
    net.params["layer1.w"][0, 0, 0] = 1.0
    net.params["head.w"][0, 0] = 1.0
    path = path_pattern(3)
    trace, ordering = rollout(net, path, rng=None)
    assert trace.total_fill == 0
    assert ordering[0] in (0, 2)  # starts at a leaf, never the middle


@pytest.mark.parametrize("greedy", [True, False])
def test_replayed_log_probs_match_each_steps_snapshot(greedy):
    net = fresh_net(7)
    p = random_pattern(np.random.default_rng(46), 9)
    trace, ordering = rollout(net, p, None if greedy else np.random.default_rng(46))
    returns = adaptive_saturation_return(trace.edges_before, trace.rewards)
    _, _, replayed = episode_gradients(net, p, trace, returns)
    assert len(replayed) == p.n
    g = ReferenceGraph(p)
    for t in range(p.n):
        state = compute_features(eliminated_graph(p, trace.nodes[:t]))
        k = len(g.live)
        assert state.graph.nodes == sorted(g.live)
        assert g.num_edges == trace.edges_before[t]
        assert np.array_equal(snapshot_edges(state.graph, k, g.num_edges),
                              environment_edges(g))
        assert np.array_equal(state.x, reference_features(g))
        log_probs = forward(net, normalize_features(state))
        row = state.graph.nodes.index(ordering[t])
        assert replayed[t] == log_probs[row]
        if greedy:
            # on a complete live graph, the lowest remaining row
            complete = g.num_edges == k * (k - 1) // 2
            assert row == (0 if complete else np.argmax(log_probs))
        g.eliminate(ordering[t])


def test_rollout_greedy_ties_break_to_lowest_index():
    # all-zero parameters score every node identically
    net = fresh_net()
    for arr in net.params.values():
        arr[...] = 0.0
    from conftest import cycle_pattern

    _, ordering = rollout(net, cycle_pattern(4), rng=None)
    assert list(ordering) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_zero_learning_rate_leaves_parameters_at_init():
    net = fresh_net(9)
    init = {name: arr.copy() for name, arr in net.params.items()}
    adam = AdamState(net)
    rng = np.random.default_rng(9)
    for _ in range(2):
        adam.step(net, {name: rng.normal(size=arr.shape) for name, arr in init.items()},
                  lr=0.0)
    for name in init:
        assert np.array_equal(net.params[name], init[name])


def test_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(reward="bonus")
    with pytest.raises(ValueError):
        TrainerConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainerConfig(episodes_per_graph=0)
    with pytest.raises(ValueError, match="checkpoint_every"):
        TrainerConfig(checkpoint_every=-2)
    # periodic checkpoints with nowhere to write them
    with pytest.raises(ValueError, match="checkpoint_every needs a checkpoint_path"):
        TrainerConfig(checkpoint_every=3)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        TrainerConfig(seed=-1)


def test_learning_rate_schedule():
    assert (LR_FIRST_EPOCH, LR_REST) == (0.01, 0.001)
    assert learning_rate(1) == 0.01
    assert learning_rate(2) == 0.001
    assert learning_rate(3) == 0.001


def test_train_seed_determinism():
    graphs = [path_pattern(8), star_pattern(4)]
    cfg = TrainerConfig(epochs=2, seed=123)
    net1, log1 = train(graphs, cfg)
    net2, log2 = train(graphs, cfg)
    for name in net1.params:
        assert np.array_equal(net1.params[name], net2.params[name])
    assert [e.format() for e in log1] == [e.format() for e in log2]


def test_train_with_the_reference_rollout_gives_the_same_bytes(monkeypatch):
    # the reference evaluates the actor on every complete state and samples
    # from its log-probs there; the same draws give the same episodes
    graphs = [delaunay(40, 6), clique_pattern(5), path_pattern(6), delaunay(25, 7)]
    for seed in (0, 1, 2):
        cfg = TrainerConfig(epochs=2, seed=seed)
        net, log = train(graphs, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "rollout", reference_rollout)
            want_net, want_log = train(graphs, cfg)
        assert [e.format() for e in log] == [e.format() for e in want_log]
        assert all(net.params[name].tobytes() == want_net.params[name].tobytes()
                   for name in want_net.params)


def test_train_refuses_a_graph_beyond_the_operator_budget(monkeypatch):
    # before its first episode, and before anything is built for the graph
    big = SparsityPattern(policy_net.MAX_POLICY_NODES + 1)
    monkeypatch.setattr(trainer, "rollout", lambda *args: pytest.fail("an episode ran"))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"training graph 1: .*at most "
                           f"{policy_net.MAX_POLICY_NODES} nodes.*got {big.n} nodes"):
            train([path_pattern(4), big], TrainerConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_train_empty_set_rejected():
    with pytest.raises(ValueError):
        train([], TrainerConfig())
    # an empty graph would give an episode with no steps to average over
    with pytest.raises(ValueError, match="graph 1 has no nodes"):
        train([path_pattern(4), SparsityPattern(0, [])], TrainerConfig())


def test_train_stops_on_non_finite_gradient(tmp_path, monkeypatch):
    graphs = [path_pattern(5), star_pattern(4)]
    ckpt = tmp_path / "rolling.ckpt"
    real = trainer.episode_gradients
    calls = []

    def poisoned(net, pattern, trace, returns, worker):
        grads, values, log_probs = real(net, pattern, trace, returns, worker)
        calls.append(len(trace))
        if len(calls) == 2:
            dict(tower_arrays(grads))["critic.head.b"][0] = np.nan
        return grads, values, log_probs

    monkeypatch.setattr(trainer, "episode_gradients", poisoned)
    cfg = TrainerConfig(epochs=2, seed=4, checkpoint_every=1, checkpoint_path=str(ckpt))
    with pytest.raises(ValueError, match="epoch 1, graph 1.*critic.head.b"):
        train(graphs, cfg)
    monkeypatch.undo()
    # the checkpoint holds the parameters after the one good episode
    reference, _ = train(graphs[:1], TrainerConfig(epochs=1, seed=4))
    loaded = load_checkpoint(ckpt)
    for name in reference.params:
        assert np.array_equal(loaded.params[name], reference.params[name])


def test_train_raw_reward_variant_runs():
    graphs = [path_pattern(6)]
    net, log = train(graphs, TrainerConfig(epochs=2, reward="raw", seed=1))
    assert len(log) == 2
    assert all(np.all(np.isfinite(v)) for v in net.params.values())


def test_train_singlehop_backbone_runs():
    net, log = train([path_pattern(5)],
                     TrainerConfig(epochs=1, backbone="singlehop", seed=2))
    assert net.config.backbone == "singlehop"
    assert len(log) == 1


def test_periodic_checkpoints(tmp_path):
    ckpt = tmp_path / "rolling.ckpt"
    cfg = TrainerConfig(epochs=4, seed=3, checkpoint_every=2,
                        checkpoint_path=str(ckpt))
    net, _ = train([path_pattern(5)], cfg)
    loaded = load_checkpoint(ckpt)
    # rolling checkpoint: last save happened at episode 4 of 4
    for name in net.params:
        assert np.array_equal(loaded.params[name], net.params[name])


def test_training_log_format(tmp_path):
    entries = [TrainLogEntry(1, 0, 37, -0.0123, 0.4567),
               TrainLogEntry(2, 1, 5, 0.25, 0.125)]
    path = tmp_path / "train.log"
    write_training_log(entries, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "1,0,37,-0.0123,0.4567"
    assert lines[1] == "2,1,5,0.25,0.125"


def test_adam_matches_reference_update():
    net = fresh_net(20)
    adam = AdamState(net)
    grads = {name: np.full_like(arr, 0.5) for name, arr in net.params.items()}
    before = {name: arr.copy() for name, arr in net.params.items()}
    adam.step(net, grads, lr=0.01)
    # first step with constant gradient: update = -lr * g / (|g| + eps)
    expected_delta = -0.01 * 0.5 / (0.5 + ADAM_EPS)
    for name in net.params:
        assert np.allclose(net.params[name] - before[name], expected_delta)


def largest(arrays):
    return {name: np.abs(arr).max() for name, arr in arrays.items()}


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 40), st.sampled_from(BACKBONES), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.floats(-2.0, -1e-3), st.floats(1e-3, 2.0)), st.data())
def test_complete_graph_is_one_node(k, backbone, seed, upstream, data):
    # the replay's tail rule against the full k-node pass that it replaces
    net = PolicyValueNet(NetConfig(backbone=backbone), rng=np.random.default_rng(seed))
    state = normalize_features(pattern_features(clique_pattern(k)))
    one = trainer._complete_node(k)
    assert np.array_equal(state.x, np.repeat(one.x, k, axis=0))
    log_probs, value, tape = evaluate(net, state)
    one_log_probs, one_value, one_tape = evaluate(net, one)
    assert one_log_probs.tobytes() == np.zeros(1).tobytes()
    assert one_value == pytest.approx(value, rel=1e-12, abs=1e-15)
    assert np.allclose(log_probs, -np.log(k), rtol=1e-12, atol=0)
    # the critic's gradient for one upstream; neither pass moves the actor
    full = dict(tower_arrays(gradients(tape, np.zeros(k), upstream)))
    single = dict(tower_arrays(gradients(one_tape, np.zeros(1), upstream)))
    scale = largest(full)
    for name, arr in full.items():
        if name.startswith("actor."):
            assert not arr.any() and not single[name].any()
        else:
            assert np.abs(single[name] - arr).max() <= 1e-12 * scale[name], name
    # the actor's exact gradient under a one-hot upstream is zero: what the
    # full pass adds is rounding, against the gradient of the chosen logit
    row = data.draw(st.integers(0, k - 1))
    one_hot = np.zeros(k)
    one_hot[row] = upstream
    actor = dict(tower_arrays(gradients(tape, one_hot, 0.0)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(policy_net, "log_softmax_backward", lambda softmax, d: d)
        logit = largest(dict(tower_arrays(gradients(tape, one_hot, 0.0))))
    for name, arr in actor.items():
        if name.startswith("actor."):
            assert np.abs(arr).max() <= 1e-13 * logit[name], name


@pytest.mark.parametrize("backbone", ["mixhop", "singlehop"])
@pytest.mark.parametrize("returns", [adaptive_saturation_return, raw_return])
@pytest.mark.parametrize("graph", ["random", "delaunay"])
def test_episode_gradients_match_tape_reference(backbone, returns, graph):
    rng = np.random.default_rng(51)
    net = PolicyValueNet(NetConfig(backbone=backbone), rng=rng)
    for n in (1, 7, 24):
        p = random_pattern(rng, n) if graph == "random" else generate_delaunay(max(n, 3), rng)
        seed = int(rng.integers(2 ** 32))
        want, want_values, want_log_probs, want_ordering = reference_episode(
            net, p, np.random.default_rng(seed), returns)
        trace, ordering = rollout(net, p, np.random.default_rng(seed))
        grads, values, log_probs = episode_gradients(
            net, p, trace, returns(trace.edges_before, trace.rewards))
        assert ordering == want_ordering
        assert log_probs == want_log_probs
        assert values == want_values
        assert grads.keys() == want.keys()
        # bytes, not just values: a -0.0 for a 0.0 would change a checkpoint
        assert all(np.array_equal(grads[name], want[name])
                   and grads[name].tobytes() == want[name].tobytes() for name in want)


def test_episode_gradients_replays_greedy_traces_and_checks_lengths():
    net = fresh_net(10)
    p = path_pattern(4)
    greedy, _ = rollout(net, p, rng=None)
    grads, values, log_probs = episode_gradients(net, p, greedy, np.zeros(4))
    assert len(values) == len(log_probs) == 4
    assert all(np.all(np.isfinite(arr)) for arr in grads.values())
    sampled, _ = rollout(net, p, np.random.default_rng(52))
    with pytest.raises(ValueError, match="returns"):
        episode_gradients(net, p, sampled, np.zeros(3))
    with pytest.raises(ValueError, match="5 nodes needs 5 steps"):
        episode_gradients(net, path_pattern(5), sampled, np.zeros(4))


# ---------------------------------------------------------------------------
# replay on two processes
# ---------------------------------------------------------------------------

@pytest.fixture
def worker():
    with trainer.replay_worker() as conn:
        if conn is None:
            pytest.skip("the replay worker needs two CPUs and the fork start method")
        yield conn


def delaunay(n, seed):
    return generate_delaunay(n, np.random.default_rng(seed))


def floats(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# one worker serves every example, as one serves every episode of a training run
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(patterns(max_n=14), st.builds(delaunay, st.integers(3, 40),
                                               st.integers(0, 2 ** 32 - 1))),
       st.sampled_from(BACKBONES), st.integers(0, 2 ** 32 - 1))
@example(SparsityPattern(1), "mixhop", 0)
@example(SparsityPattern(1), "singlehop", 0)
def test_two_process_replay_is_bytes_equal_to_one_process(worker, pattern, backbone, seed):
    rng = np.random.default_rng(seed)
    net = PolicyValueNet(NetConfig(backbone=backbone), rng=rng)
    trace, _ = rollout(net, pattern, rng)
    returns = adaptive_saturation_return(trace.edges_before, trace.rewards)
    want, want_values, want_chosen = episode_gradients(net, pattern, trace, returns)
    n, t_c = pattern.n, first_complete_step(trace)
    # splits inside the complete tail too: its replay goes, as one unit, to
    # whichever process replays step t_c
    splits = {0, 1, t_c, t_c + 1, n - 1, n, int(rng.integers(n + 1)),
              int(rng.integers(t_c, n + 1))}
    for split in splits & set(range(n + 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "_split_step", lambda steps, first_complete: split)
            grads, values, chosen = episode_gradients(net, pattern, trace, returns, worker)
        assert grads.keys() == want.keys()
        assert all(grads[name].tobytes() == want[name].tobytes() for name in want), split
        assert floats(values) == floats(want_values)
        assert floats(chosen) == floats(want_chosen)


def test_split_step_keeps_small_episodes_in_process():
    assert [trainer._split_step(n, t_c) for n, t_c in
            [(0, 0), (1, 0), (2, 0), (2, 1), (5, 0), (5, 3)]] == [0, 1, 2, 2, 5, 5]
    for n in (60, 200, 1000):
        for t_c in (n // 2, n - 30, n - 1):
            split = trainer._split_step(n, t_c)
            assert 0 < split <= t_c     # never inside the tail
            if t_c <= n - 30:           # a tail as long as in sampled episodes
                assert split <= n / 2   # the first steps are the largest


def test_train_on_two_processes_matches_one(monkeypatch):
    graphs = [delaunay(40, 1), path_pattern(3), delaunay(25, 2)]
    cfg = TrainerConfig(epochs=2, seed=3)
    workers = []
    real = trainer.episode_gradients

    def counting(*args):
        workers.append(len(multiprocessing.active_children()))
        return real(*args)

    monkeypatch.setattr(trainer, "episode_gradients", counting)
    net, log = train(graphs, cfg)
    assert not multiprocessing.active_children()
    if len(os.sched_getaffinity(0)) > 1:
        assert workers == [1] * 6     # one worker for the whole run
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want_net, want_log = train(graphs, cfg)
    assert workers[6:] == [0] * 6
    assert [e.format() for e in log] == [e.format() for e in want_log]
    assert all(net.params[name].tobytes() == want_net.params[name].tobytes()
               for name in want_net.params)


@pytest.mark.parametrize("pattern, rows", [
    (SparsityPattern(1), [1]),
    (clique_pattern(2), [1, 1]),
    (clique_pattern(5), [1, 1, 1]),
    (SparsityPattern(2), [2, 1]),
    (path_pattern(3), [3, 1, 1]),
], ids=["one_node", "clique2", "clique5", "two_isolated", "path3"])
def test_train_on_tail_heavy_episodes(monkeypatch, pattern, rows):
    # `rows` are those of each state the replay evaluates: the live graph of
    # each step before the first complete one, then one node per class of k.
    # The first three episodes are all tail; two isolated nodes have only
    # the k = 1 class
    cfg = TrainerConfig(epochs=2, seed=6)
    real = trainer.evaluate
    seen = []

    def counting(towers, state):
        seen.append(len(state.x))
        return real(towers, state)

    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        mp.setattr(trainer, "evaluate", counting)
        want_net, want_log = train([pattern], cfg)
    assert seen == rows * 2
    assert all(np.isfinite([e.l_actor, e.l_critic]).all() for e in want_log)
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the replay worker needs two CPUs")
    for split in range(pattern.n + 1):
        monkeypatch.setattr(trainer, "_split_step", lambda steps, first_complete: split)
        net, log = train([pattern], cfg)
        assert [e.format() for e in log] == [e.format() for e in want_log]
        assert all(net.params[name].tobytes() == want_net.params[name].tobytes()
                   for name in want_net.params), split


def test_train_leaves_no_child_after_non_finite_gradient(monkeypatch):
    real = trainer.episode_gradients

    def poisoned(*args):
        grads, values, log_probs = real(*args)
        dict(tower_arrays(grads))["actor.head.w"][0] = np.inf
        return grads, values, log_probs

    monkeypatch.setattr(trainer, "episode_gradients", poisoned)
    with pytest.raises(ValueError, match="epoch 1, graph 0.*actor.head.w"):
        train([delaunay(40, 4)], TrainerConfig())
    assert not multiprocessing.active_children()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the worker needs two CPUs")
def test_train_restores_the_callers_cpu_affinity(monkeypatch):
    # the caller's affinity is the same after a run with the replay worker,
    # whether the run returned or raised
    cpus = os.sched_getaffinity(0)
    train([delaunay(40, 8)], TrainerConfig())
    assert os.sched_getaffinity(0) == cpus
    real = trainer.episode_gradients

    def poisoned(*args):
        grads, values, log_probs = real(*args)
        dict(tower_arrays(grads))["actor.head.w"][0] = np.nan
        return grads, values, log_probs

    monkeypatch.setattr(trainer, "episode_gradients", poisoned)
    with pytest.raises(ValueError, match="non-finite training values"):
        train([delaunay(40, 8)], TrainerConfig())
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the worker needs two CPUs")
def test_train_leaves_the_callers_cpu_affinity_alone_while_it_runs(monkeypatch):
    # a trainer pinned to some CPUs and its worker to another made two runs
    # started together queue on one CPU each
    cpus = os.sched_getaffinity(0)
    seen = []
    real = trainer.episode_gradients

    def watching(*args):
        seen.append(os.sched_getaffinity(0))
        return real(*args)

    monkeypatch.setattr(trainer, "episode_gradients", watching)
    train([delaunay(40, 8)], TrainerConfig(epochs=2))
    assert seen == [cpus] * 2


@pytest.mark.parametrize("failure, message", [
    ("raise", r"replay worker failed \(RuntimeError: boom\) in epoch 1, graph 1$"),
    ("exit", r"replay worker stopped \(\w+\) in epoch 1, graph 1$"),
])
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the worker needs two CPUs")
def test_train_names_the_episode_when_the_worker_fails(monkeypatch, failure, message):
    parent = os.getpid()
    real = trainer.evaluate

    def evaluate(*args):
        if os.getpid() != parent:     # in the worker
            if failure == "raise":
                raise RuntimeError("boom")
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(trainer, "evaluate", evaluate)
    # the 3-node episode stays in-process; the worker fails on the second
    with pytest.raises(trainer.ReplayError, match=message):
        train([path_pattern(3), delaunay(40, 5)], TrainerConfig())
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("n, seeds, mib", [
    # a tape per step held a dense k x k operator per step: 38 MB
    (120, (53, 11, 54), 10),
    # keeping every sampled step's snapshot for the replay: 9.3 MiB
    (300, (7, 13, 8), 4),
], ids=["n120", "n300"])
def test_episode_memory_stays_small(n, seeds, mib):
    graph_seed, net_seed, sample_seed = seeds
    p = generate_delaunay(n, np.random.default_rng(graph_seed))
    net = fresh_net(net_seed)
    rng = np.random.default_rng(sample_seed)
    tracemalloc.start()
    try:
        trace, _ = rollout(net, p, rng)
        returns = adaptive_saturation_return(trace.edges_before, trace.rewards)
        episode_gradients(net, p, trace, returns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2 ** 20


@pytest.mark.slow
def test_learning_progress_on_delaunay_set():
    """Mean episode fill must drop from epoch 1 to epoch 3; the realized
    means are frozen as a regression baseline for this seed pair."""
    graphs = generate_training_set(50, 60, 200, np.random.default_rng(777))
    _, log = train(graphs, TrainerConfig(epochs=3, seed=0))
    per_epoch: dict[int, list[int]] = {}
    for entry in log:
        per_epoch.setdefault(entry.epoch, []).append(entry.total_fill)
    means = {ep: float(np.mean(fills)) for ep, fills in per_epoch.items()}
    assert means[3] < means[1]
    assert means[1] == pytest.approx(2519.12, abs=0.01)
    assert means[2] == pytest.approx(2316.86, abs=0.01)
    assert means[3] == pytest.approx(2113.12, abs=0.01)
