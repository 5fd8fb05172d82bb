import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import (fill_edges, path_pattern, random_pattern, reference_episode,
                      star_pattern)
from fillreduce import (EliminationGraph, EpisodeRecord, SparsityPattern,
                        TrainerConfig, adaptive_saturation_return,
                        compute_features, forward, generate_delaunay,
                        generate_training_set, losses, normalize_features,
                        raw_return, rollout, symbolic_factorize, train, trainer)
from fillreduce.policy_net import (ForwardTape, NetConfig, PolicyValueNet,
                                   load_checkpoint)
from fillreduce.trainer import (ADAM_EPS, AdamState, TrainLogEntry,
                               episode_gradients, write_training_log)


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
        record, _ = rollout(net, p, rng)
        asr = adaptive_saturation_return(record.trace.edges_before, record.trace.rewards)
        assert np.all(asr > -1.0) and np.all(asr <= 1.0)
        suffix = np.cumsum(np.array(record.trace.rewards)[::-1])[::-1]
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

def make_record(log_probs):
    rec = EpisodeRecord()
    rec.log_probs = list(log_probs)
    rec.chosen_rows = [0] * len(log_probs)
    return rec


def test_losses_zero_advantage():
    returns = np.array([0.5, -0.25, 1.0])
    l_a, l_c, adv = losses(make_record([-1.0, -2.0, -0.5]), returns, returns)
    assert l_a == 0.0 and l_c == 0.0
    assert np.all(adv == 0.0)


def test_losses_single_step_arithmetic():
    l_a, l_c, adv = losses(make_record([-0.5]), [0.0], np.array([1.0]))
    assert l_a == pytest.approx(0.5)
    assert l_c == pytest.approx(1.0)
    assert adv.tolist() == [1.0]


def test_losses_critic_is_mean_squared_advantage():
    rng = np.random.default_rng(42)
    returns = rng.normal(size=6)
    _, l_c, adv = losses(make_record(rng.normal(size=6)), rng.normal(size=6), returns)
    assert l_c == pytest.approx(float((adv ** 2).mean()))


def test_losses_value_shift_identity():
    rng = np.random.default_rng(43)
    returns = rng.normal(size=5)
    values = rng.normal(size=5)
    delta = 0.37
    _, l_c, adv = losses(make_record(np.zeros(5)), values, returns)
    _, l_c_shifted, _ = losses(make_record(np.zeros(5)), values + delta, returns)
    assert l_c_shifted - l_c == pytest.approx(
        float(((adv - delta) ** 2).mean() - (adv ** 2).mean()))


def test_losses_length_mismatch():
    with pytest.raises(ValueError):
        losses(make_record([0.0]), [0.0], np.zeros(2))
    with pytest.raises(ValueError):
        losses(make_record([0.0]), [0.0, 0.0], np.zeros(1))


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

def test_rollout_single_node():
    record, ordering = rollout(fresh_net(), SparsityPattern(1, []),
                               np.random.default_rng(0))
    assert len(record) == 1
    assert record.trace.rewards == [0]
    assert list(ordering) == [0]


def test_rollout_matches_symbolic_factorization():
    rng = np.random.default_rng(44)
    net = fresh_net(5)
    for pattern in [star_pattern(3), path_pattern(6),
                    random_pattern(rng, 9), random_pattern(rng, 12)]:
        record, ordering = rollout(net, pattern, rng)
        trace = symbolic_factorize(pattern, ordering)
        assert record.trace.total_fill == len(fill_edges(pattern, ordering))
        assert record.trace.rewards == trace.rewards
        assert record.trace.edges_before == trace.edges_before


def test_rollout_greedy_is_deterministic_and_needs_no_rng():
    net = fresh_net(6)
    p = random_pattern(np.random.default_rng(45), 10)
    _, first = rollout(net, p, rng=None, greedy=True)
    _, second = rollout(net, p, rng=None, greedy=True)
    assert first == second
    with pytest.raises(ValueError):
        rollout(net, p, rng=None)
    record, empty = rollout(net, SparsityPattern(0, []), np.random.default_rng(0))
    assert len(record) == len(record.trace) == 0
    assert list(empty) == []


def test_no_rollout_keeps_a_tape():
    net = fresh_net(8)
    p = random_pattern(np.random.default_rng(47), 10)
    greedy, _ = rollout(net, p, rng=None, greedy=True)
    sampled, _ = rollout(net, p, np.random.default_rng(48))
    for record in (greedy, sampled):
        assert len(record) == len(record.trace) == 10
        for f in dataclasses.fields(record):
            kept = getattr(record, f.name)
            assert not any(isinstance(item, ForwardTape)
                           for item in (kept if isinstance(kept, list) else [kept]))
    assert greedy.states == []
    # a sampled step keeps its features and adjacency, nothing k x k
    assert [len(s.nodes) for s in sampled.states] == list(range(10, 0, -1))
    for state in sampled.states:
        k, adj = len(state.nodes), state.adjacency
        assert state.x.shape == (k, 2) and adj.degree.shape == (k,)
        assert adj.degree.dtype == adj.cols.dtype == np.int32
        assert adj.cols.shape == (adj.degree.sum(),)


@pytest.mark.parametrize("greedy", [True, False])
def test_rollout_never_evaluates_the_critic(greedy):
    net = fresh_net(9)
    blind = PolicyValueNet(net.config, params={
        name: np.full_like(arr, np.nan) if name.startswith("critic.") else arr
        for name, arr in net.params.items()})
    p = random_pattern(np.random.default_rng(49), 12)
    rng = lambda: None if greedy else np.random.default_rng(50)
    expected, ordering = rollout(net, p, rng(), greedy=greedy)
    record, blind_ordering = rollout(blind, p, rng(), greedy=greedy)
    assert blind_ordering == ordering
    assert record.chosen_rows == expected.chosen_rows
    assert record.log_probs == expected.log_probs
    assert not np.isnan(record.log_probs).any()


def test_rollout_greedy_leaf_preferring_net_peels_path():
    # hand-built policy whose logit decreases with degree: layer 0 routes the
    # degree feature into one hidden unit with a large negative weight, layer 1
    # and the head pass it through
    net = fresh_net()
    for name, arr in net.params.items():
        arr[...] = 0.0
    net.params["actor.layer0.hop0.w"][0, 0] = -10.0
    net.params["actor.layer1.hop0.w"][0, 0] = 1.0
    net.params["actor.head.w"][0] = 1.0
    path = path_pattern(3)
    record, ordering = rollout(net, path, rng=None, greedy=True)
    assert record.trace.total_fill == 0
    assert ordering[0] in (0, 2)  # starts at a leaf, never the middle


def test_rollout_log_probs_match_chosen_rows():
    net = fresh_net(7)
    p = random_pattern(np.random.default_rng(46), 9)
    record, ordering = rollout(net, p, np.random.default_rng(46))
    g = EliminationGraph(p)
    for t, state in enumerate(record.states):
        x = normalize_features(compute_features(g))
        assert state.nodes == x.nodes
        assert np.array_equal(state.x, x.x)
        for got, want in ((state.adjacency.degree, x.adjacency.degree),
                          (state.adjacency.cols, x.adjacency.cols)):
            assert np.array_equal(got, want)
        log_probs, _ = forward(net, x)
        assert record.log_probs[t] == log_probs[record.chosen_rows[t]]
        assert x.nodes[record.chosen_rows[t]] == ordering[t]
        g.eliminate(ordering[t])


def test_rollout_greedy_ties_break_to_lowest_index():
    # all-zero parameters score every node identically
    net = fresh_net()
    for arr in net.params.values():
        arr[...] = 0.0
    from conftest import cycle_pattern

    _, ordering = rollout(net, cycle_pattern(4), rng=None, greedy=True)
    assert list(ordering) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_zero_learning_rate_leaves_parameters_at_init():
    graphs = [path_pattern(6)]
    cfg = TrainerConfig(epochs=2, lr_first_epoch=0.0, lr_rest=0.0, seed=9)
    net, log = train(graphs, cfg)
    init_seed, _ = np.random.SeedSequence(9).spawn(2)
    reference = PolicyValueNet(NetConfig(), rng=np.random.default_rng(init_seed))
    for name in net.params:
        assert np.array_equal(net.params[name], reference.params[name])
    assert len(log) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(lr_first_epoch=-0.1)
    with pytest.raises(ValueError):
        TrainerConfig(reward="bonus")
    with pytest.raises(ValueError):
        TrainerConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainerConfig(episodes_per_graph=0)


def test_learning_rate_schedule():
    cfg = TrainerConfig(epochs=3)
    assert cfg.learning_rate(1) == 0.01
    assert cfg.learning_rate(2) == 0.001
    assert cfg.learning_rate(3) == 0.001


def test_train_seed_determinism():
    graphs = [path_pattern(8), star_pattern(4)]
    cfg = TrainerConfig(epochs=2, seed=123)
    net1, log1 = train(graphs, cfg)
    net2, log2 = train(graphs, cfg)
    for name in net1.params:
        assert np.array_equal(net1.params[name], net2.params[name])
    assert [e.format() for e in log1] == [e.format() for e in log2]


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

    def poisoned(net, record, returns):
        grads, values = real(net, record, returns)
        calls.append(len(record))
        if len(calls) == 2:
            grads["critic.head.b"][0] = np.nan
        return grads, values

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
        record, ordering = rollout(net, p, np.random.default_rng(seed))
        grads, values = episode_gradients(
            net, record, returns(record.trace.edges_before, record.trace.rewards))
        assert ordering == want_ordering
        assert record.log_probs == want_log_probs
        assert values == want_values
        assert grads.keys() == want.keys()
        # bytes, not just values: a -0.0 for a 0.0 would change a checkpoint
        assert all(np.array_equal(grads[name], want[name])
                   and grads[name].tobytes() == want[name].tobytes() for name in want)


def test_episode_gradients_rejects_unreplayable_records():
    net = fresh_net(10)
    p = path_pattern(4)
    greedy, _ = rollout(net, p, rng=None, greedy=True)
    with pytest.raises(ValueError, match="recorded states"):
        episode_gradients(net, greedy, np.zeros(4))
    sampled, _ = rollout(net, p, np.random.default_rng(52))
    with pytest.raises(ValueError, match="returns"):
        episode_gradients(net, sampled, np.zeros(3))


def test_episode_memory_stays_small():
    # a tape per step held a dense k x k operator per step: 38 MB here
    p = generate_delaunay(120, np.random.default_rng(53))
    net = fresh_net(11)
    rng = np.random.default_rng(54)
    tracemalloc.start()
    try:
        record, _ = rollout(net, p, rng)
        returns = adaptive_saturation_return(record.trace.edges_before, record.trace.rewards)
        episode_gradients(net, record, returns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


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
