import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (eliminated_graph, gradients, one_tower, path_pattern, patterns,
                      per_hop_towers, random_pattern)
from fillreduce import (EliminationGraph, NetConfig, NetworkError, PolicyValueNet,
                        SparsityPattern, backward, build_propagation, compute_features,
                        evaluate, forward, generate_delaunay, load_checkpoint,
                        normalize_features, save_checkpoint)
from fillreduce.policy_net import (_tower_backward, _tower_forward, log_softmax_backward,
                                   param_shapes)
from fillreduce.trainer import AdamState


def state(pattern):
    return normalize_features(compute_features(EliminationGraph.of(pattern)))


def fresh_net(seed=0, **kwargs):
    return PolicyValueNet(NetConfig(**kwargs), rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# propagation operator
# ---------------------------------------------------------------------------

def test_propagation_isolated_node():
    prop = build_propagation(EliminationGraph.of(SparsityPattern(1, [])))
    assert prop.tolist() == [[1.0]]


def test_propagation_single_edge():
    prop = build_propagation(EliminationGraph.of(SparsityPattern(2, [(0, 1)])))
    assert np.allclose(prop, [[0.5, 0.5], [0.5, 0.5]])


def test_propagation_singlehop_rows_average():
    cfg = NetConfig(backbone="singlehop")
    prop = build_propagation(EliminationGraph.of(path_pattern(3)), cfg)
    assert cfg.hops == (1,)
    assert np.allclose(prop.sum(axis=1), 1.0)
    assert np.allclose(prop[0], [0.5, 0.5, 0.0])


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_probabilities_normalize_and_value_bounded():
    rng = np.random.default_rng(32)
    for backbone in ("mixhop", "singlehop"):
        net = fresh_net(5, backbone=backbone)
        for _ in range(10):
            x = state(random_pattern(rng, int(rng.integers(1, 12))))
            log_probs, value, _ = evaluate(net, x)
            assert abs(np.exp(log_probs).sum() - 1.0) < 1e-9
            assert -1.0 < value < 1.0


def test_forward_rejects_empty_graph_and_bad_features():
    net = fresh_net()
    with pytest.raises(NetworkError, match="empty graph"):
        forward(net, normalize_features(compute_features(
            eliminated_graph(SparsityPattern(1, []), [0]))))

    x = state(path_pattern(3))
    with pytest.raises(NetworkError, match="adjacency has 3 live nodes"):
        forward(net, replace(x, x=x.x[1:]))  # features for fewer nodes


def test_automorphic_leaves_score_equally():
    # the two ends of a 3-path are exchangeable, so any parameters must
    # score them identically
    for seed in range(5):
        net = fresh_net(seed)
        x = state(path_pattern(3))
        log_probs = forward(net, x)
        assert abs(log_probs[0] - log_probs[2]) < 1e-12


def test_forward_deterministic():
    net = fresh_net(8)
    x = state(random_pattern(np.random.default_rng(33), 9))
    first = evaluate(net, x)
    second = evaluate(net, x)
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]


def relabel(pattern, perm):
    return SparsityPattern(pattern.n, [(perm[i], perm[j]) for i, j in pattern.edges])


def test_permutation_equivariance():
    rng = np.random.default_rng(34)
    net = fresh_net(9)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        p = random_pattern(rng, n)
        perm = [int(v) for v in rng.permutation(n)]
        x1 = state(p)
        x2 = state(relabel(p, perm))
        lp1, v1, _ = evaluate(net, x1)
        lp2, v2, _ = evaluate(net, x2)
        for v in range(n):
            assert abs(lp1[v] - lp2[perm[v]]) <= 1e-9
        assert abs(v1 - v2) <= 1e-9


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_zero_upstream_gives_zero_gradients():
    net = fresh_net(10)
    x = state(random_pattern(np.random.default_rng(35), 6))
    _, _, tape = evaluate(net, x)
    grads = gradients(tape, np.zeros(6), 0.0)
    assert all(np.all(v == 0) for v in grads.values())


def test_log_softmax_self_gradient_identity():
    rng = np.random.default_rng(36)
    logits = rng.normal(size=5)
    softmax = np.exp(logits - logits.max())
    softmax /= softmax.sum()
    for i in range(5):
        upstream = np.zeros(5)
        upstream[i] = 1.0
        d_logits = log_softmax_backward(softmax, upstream)
        assert abs(d_logits[i] - (1.0 - softmax[i])) < 1e-12


def test_tape_net_mismatch_rejected():
    net1, net2 = fresh_net(1), fresh_net(2)
    x = state(path_pattern(4))
    _, _, tape = evaluate(net1, x)
    twin = PolicyValueNet(net1.config, params=net1.params)   # equal arrays, another net
    with pytest.raises(NetworkError, match="different network"):
        backward(twin, tape, np.zeros(4), 0.0)
    with pytest.raises(NetworkError, match="different network"):
        backward(net2, tape, np.zeros(4), 0.0)
    with pytest.raises(NetworkError, match="shape"):
        backward(tape.net, tape, np.zeros(3), 0.0)


def finite_difference_check(net, x, rng, step=1e-4, tol=1e-3):
    c_lp = rng.normal(size=len(x.graph.nodes))
    c_v = float(rng.normal())

    def scalar_loss():
        lp, value, _ = evaluate(net, x)
        return float((c_lp * lp).sum() + c_v * value)

    _, _, tape = evaluate(net, x)
    grads = gradients(tape, c_lp, c_v)
    worst = 0.0
    for name, arr in net.params.items():
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            up = scalar_loss()
            arr[idx] = orig - step
            down = scalar_loss()
            arr[idx] = orig
            fd = (up - down) / (2 * step)
            an = grads[name][idx]
            # floor guards exact-zero gradients against FD roundoff
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
            worst = max(worst, rel)
            assert rel <= tol, f"{name}{idx}: analytic {an} vs fd {fd}"
    return worst


def test_finite_difference_gradients_small():
    rng = np.random.default_rng(37)
    x = state(random_pattern(rng, 5))
    net = fresh_net(11, num_layers=1, hidden_per_hop=4)
    assert finite_difference_check(net, x, rng) < 1e-3


def test_finite_difference_gradients_singlehop():
    rng = np.random.default_rng(38)
    x = state(random_pattern(rng, 5))
    net = fresh_net(12, backbone="singlehop", hidden_per_hop=4)
    assert finite_difference_check(net, x, rng) < 1e-3


def test_finite_difference_gradients_lone_hop_columns():
    # one hidden unit per hop: every hop block of layers 1 and 2 is a lone column
    rng = np.random.default_rng(39)
    x = state(random_pattern(rng, 6))
    net = fresh_net(20, num_layers=3, hidden_per_hop=1)
    assert finite_difference_check(net, x, rng) < 1e-3


def test_finite_difference_gradients_singlehop_deep():
    # the row-normalized operator is not symmetric, so layers 1 and 2 need P^T
    rng = np.random.default_rng(40)
    x = state(random_pattern(rng, 6))
    prop = build_propagation(x.graph, NetConfig(backbone="singlehop"))
    assert not np.array_equal(prop, prop.T)
    net = fresh_net(21, backbone="singlehop", num_layers=3, hidden_per_hop=3)
    assert finite_difference_check(net, x, rng) < 1e-3


@st.composite
def layout_cases(draw):
    """A net of any shape and one state: a random pattern (isolated nodes
    and k = 1 included) or a Delaunay graph, partly eliminated."""
    config = NetConfig(backbone=draw(st.sampled_from(["mixhop", "singlehop"])),
                       num_layers=draw(st.integers(1, 3)),
                       hidden_per_hop=draw(st.integers(1, 16)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        pattern = draw(patterns(max_n=14).filter(lambda p: p.n > 0))
    else:
        pattern = generate_delaunay(draw(st.integers(3, 40)), rng)
    eliminated = draw(st.permutations(range(pattern.n)))[:draw(st.integers(0, pattern.n - 1))]
    x = normalize_features(compute_features(eliminated_graph(pattern, eliminated)))
    return (PolicyValueNet(config, rng=rng), x, rng.normal(size=len(x.graph.nodes)),
            float(rng.normal()))


@settings(max_examples=300, deadline=None)
@given(layout_cases())
def test_block_layers_match_per_hop_reference(case):
    net, x, c_lp, c_v = case
    log_probs, v, tape = evaluate(net, x)
    grads = gradients(tape, c_lp, c_v)
    with per_hop_towers():
        want_log_probs, want_v, want_tape = evaluate(net, x)
        want = gradients(want_tape, c_lp, c_v)
    assert np.array_equal(log_probs, want_log_probs)
    assert v == want_v
    assert list(grads) == list(want)
    # One hidden unit per hop of several makes each hop's gradient block a
    # lone strided column: numpy sums a lone column pairwise rather than row
    # by row, and multiplies a strided one without BLAS. Those gradients
    # differ from the per-hop ones in rounding only.
    cfg = net.config
    exact = cfg.hidden_per_hop > 1 or len(cfg.hops) == 1
    for name in want:
        if exact:
            assert np.array_equal(grads[name], want[name]), name
        else:
            np.testing.assert_allclose(grads[name], want[name], rtol=1e-9, atol=1e-10,
                                       err_msg=name)


# ---------------------------------------------------------------------------
# configuration and checkpoints
# ---------------------------------------------------------------------------

def test_config_validation_and_widths():
    with pytest.raises(NetworkError):
        NetConfig(backbone="transformer")
    with pytest.raises(NetworkError):
        NetConfig(num_layers=0)
    cfg = NetConfig()
    assert cfg.trunk_width == 48
    assert cfg.layer_in_width(0) == 2
    assert cfg.layer_in_width(1) == 48
    shapes = param_shapes(cfg)
    # both towers stacked on the leading axis, actor first; the head bias
    # is the critic's alone
    assert shapes == {"layer0.w": (2, 2, 48), "layer0.b": (2, 48),
                      "layer1.w": (2, 48, 48), "layer1.b": (2, 48),
                      "head.w": (2, 48), "head.b": (1,)}
    net = PolicyValueNet(cfg)
    assert type(net.params) is dict and type(net.zero_grads()) is dict
    assert {k: v.shape for k, v in net.params.items()} == shapes


def test_mismatched_params_rejected_at_construction():
    net = fresh_net(13)
    bad = dict(net.params)
    bad["head.w"] = np.zeros((2, 7))
    with pytest.raises(NetworkError):
        PolicyValueNet(net.config, params=bad)


def test_checkpoint_round_trip(tmp_path):
    net = fresh_net(14, backbone="singlehop", hidden_per_hop=8)
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.config == net.config
    assert set(loaded.params) == set(net.params)
    for name in net.params:
        assert np.array_equal(loaded.params[name], net.params[name])
    # loaded net behaves identically
    x = state(path_pattern(5))
    assert np.array_equal(forward(net, x), forward(loaded, x))


def moves_forward(net, name, x):
    """Whether an in-place edit of the last hop's columns of parameter
    ``name`` changes the actor's output."""
    before = forward(net, x)
    net.params[name][..., net.config.hop_blocks[-1]] += 0.5
    return not np.array_equal(forward(net, x), before)


@pytest.mark.parametrize("backbone", ["mixhop", "singlehop"])
def test_parameters_are_what_forward_reads(tmp_path, backbone):
    # every way a net gets its parameters leaves net.params holding the
    # arrays that forward reads, in place or rebound
    x = state(path_pattern(5))
    net = fresh_net(18, backbone=backbone, num_layers=2, hidden_per_hop=3)
    assert list(net.params) == list(param_shapes(net.config))
    bias, weight = "layer1.b", "layer1.w"

    adam = AdamState(net)
    _, _, tape = evaluate(net, x)
    adam.step(net, gradients(tape, np.ones(5), 1.0), lr=0.01)
    copied = PolicyValueNet(net.config, params={k: v.copy() for k, v in net.params.items()})
    assert np.array_equal(forward(copied, x), forward(net, x))
    assert moves_forward(net, bias, x)

    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(net, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert moves_forward(loaded, bias, x)

    rebuilt = PolicyValueNet(net.config, params=dict(net.params))
    assert moves_forward(rebuilt, bias, x)

    before = forward(rebuilt, x)
    rebuilt.params[weight] = rebuilt.params[weight] * 2.0
    assert not np.array_equal(forward(rebuilt, x), before)


def test_checkpoint_save_failure_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    old = fresh_net(16)
    save_checkpoint(old, path)

    def failing_savez(fh, **arrays):
        fh.write(b"PK partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(fresh_net(17), path)
    monkeypatch.undo()
    loaded = load_checkpoint(path)
    for name in old.params:
        assert np.array_equal(loaded.params[name], old.params[name])
    assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_rejects_corruption(tmp_path):
    net = fresh_net(15)
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, path)

    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}

    # shape mismatch
    bad = dict(arrays)
    bad["head.w"] = np.zeros(3)
    with open(tmp_path / "bad_shape.ckpt", "wb") as fh:
        np.savez(fh, **bad)
    with pytest.raises(NetworkError, match="mismatched"):
        load_checkpoint(tmp_path / "bad_shape.ckpt")

    # a layer array of one hop's width
    bad = dict(arrays)
    bad["layer1.w"] = np.zeros((2, 48, 16))
    with open(tmp_path / "hop_width.ckpt", "wb") as fh:
        np.savez(fh, **bad)
    with pytest.raises(NetworkError, match=r"mismatched=\[layer1.w\]"):
        load_checkpoint(tmp_path / "hop_width.ckpt")

    # missing parameter
    bad = dict(arrays)
    del bad["head.b"]
    with open(tmp_path / "missing.ckpt", "wb") as fh:
        np.savez(fh, **bad)
    with pytest.raises(NetworkError, match="missing"):
        load_checkpoint(tmp_path / "missing.ckpt")

    # one array per hop, under per-hop names, is not this format
    bad = {k: v for k, v in arrays.items() if not k.startswith("layer")}
    for name in param_shapes(net.config):
        stem, kind = name.rsplit(".", 1)
        for hop, block in zip(net.config.hops, net.config.hop_blocks):
            if stem.startswith("layer"):
                bad[f"{stem}.hop{hop}.{kind}"] = arrays[name][..., block]
    with open(tmp_path / "per_hop.ckpt", "wb") as fh:
        np.savez(fh, **bad)
    with pytest.raises(NetworkError, match="declares 6 parameter arrays and holds 14"):
        load_checkpoint(tmp_path / "per_hop.ckpt")

    # an unknown version, and format 2, which kept each tower's arrays apart
    for version in (99, 2):
        bad = dict(arrays)
        meta = json.loads(str(bad["__meta__"]))
        meta["format_version"] = version
        bad["__meta__"] = np.array(json.dumps(meta))
        with open(tmp_path / "vers.ckpt", "wb") as fh:
            np.savez(fh, **bad)
        with pytest.raises(NetworkError, match=f"unsupported version {version}, expected 3"):
            load_checkpoint(tmp_path / "vers.ckpt")

    # metadata that is not JSON, not an object, short of a field, with a
    # non-integer layer count or width, or built for another feature count;
    # each error names the file
    meta = json.loads(str(arrays["__meta__"]))
    no_backbone = {k: v for k, v in meta.items() if k != "backbone"}
    cases = {
        "garbage": ("{not json", "bad metadata"),
        "not_object": ("[1, 2]", "bad metadata"),
        "no_field": (json.dumps(no_backbone), "bad metadata"),
        "in_dim": (json.dumps({**meta, "in_dim": 5}), "input features"),
        "float_layers": (json.dumps({**meta, "num_layers": 2.0}), "bad metadata"),
        "float_width": (json.dumps({**meta, "hidden_per_hop": 16.0}), "bad metadata"),
    }
    for name, (text, message) in cases.items():
        bad_meta = tmp_path / f"{name}.ckpt"
        with open(bad_meta, "wb") as fh:
            np.savez(fh, **{**arrays, "__meta__": np.array(text)})
        with pytest.raises(NetworkError, match=message) as info:
            load_checkpoint(bad_meta)
        assert str(bad_meta) in str(info.value)

    # a NaN or an infinity among the parameters, which greedy inference
    # would silently turn into natural order
    for name, poison in (("nan", np.nan), ("inf", -np.inf)):
        bad = dict(arrays)
        bad["head.w"] = arrays["head.w"].copy()
        bad["head.w"][0, 0] = poison
        non_finite = tmp_path / f"{name}.ckpt"
        with open(non_finite, "wb") as fh:
            np.savez(fh, **bad)
        with pytest.raises(NetworkError, match="non-finite values in actor.head.w") as info:
            load_checkpoint(non_finite)
        assert str(non_finite) in str(info.value)

    # an architecture far larger than the archive is refused by its
    # parameter count, before any of its names is built
    huge = tmp_path / "huge.ckpt"
    huge_meta = json.dumps({**meta, "num_layers": 20000})
    with open(huge, "wb") as fh:
        np.savez(fh, **{**arrays, "__meta__": np.array(huge_meta)})
    with pytest.raises(NetworkError, match="declares 40002 parameter arrays") as info:
        load_checkpoint(huge)
    assert len(str(info.value)) < 1024

    # not an archive at all
    (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint")
    with pytest.raises(NetworkError):
        load_checkpoint(tmp_path / "junk.ckpt")


def one_tower_at_a_time(net, tape, c_lp, c_v):
    """Log-probs, value and gradients with each tower's slices run through
    the kernels one after the other, on the tape's operator and hop inputs:
    the actor, its head and log-softmax, then the critic and its tanh head,
    then the backward pass of each alone."""
    cfg, p = net.config, net.params
    towers = [_tower_forward(cfg, one_tower(p, t), tape.prop, tape.first) for t in (0, 1)]
    logits = towers[0][-1] @ p["head.w"][0]
    shifted = logits - logits.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    t = np.tanh(towers[1][-1] @ p["head.w"][1] + p["head.b"][0])
    d_heads = [log_softmax_backward(np.exp(log_probs), c_lp), (c_v / t.size) * (1.0 - t * t)]
    grads = net.zero_grads()
    for tower, (outputs, d) in enumerate(zip(towers, d_heads)):
        grads["head.w"][tower] += outputs[-1].T @ d
        _tower_backward(cfg, one_tower(p, tower), outputs, tape.first, tape.prop,
                        np.outer(d, p["head.w"][tower]), one_tower(grads, tower))
    grads["head.b"] += d_heads[1].sum(keepdims=True)
    return log_probs, float(t.mean()), grads


@settings(max_examples=200, deadline=None)
@given(patterns(max_n=16).filter(lambda p: p.n > 0), st.sampled_from(["mixhop", "singlehop"]),
       st.sampled_from([2, 16]), st.integers(0, 2 ** 32 - 1), st.data())
def test_stacked_towers_match_one_tower_at_a_time(pattern, backbone, hidden, seed, data):
    rng = np.random.default_rng(seed)
    net = PolicyValueNet(NetConfig(backbone=backbone, hidden_per_hop=hidden), rng=rng)
    eliminated = data.draw(st.permutations(range(pattern.n)))[:data.draw(
        st.integers(0, pattern.n - 1))]
    x = normalize_features(compute_features(eliminated_graph(pattern, eliminated)))
    c_lp, c_v = rng.normal(size=len(x.graph.nodes)), float(rng.normal())
    log_probs, v, tape = evaluate(net, x)      # both towers stacked
    grads = gradients(tape, c_lp, c_v)
    assert np.array_equal(log_probs, forward(net, x))
    want_log_probs, want_v, want = one_tower_at_a_time(net, tape, c_lp, c_v)
    assert np.array_equal(log_probs, want_log_probs)
    assert v == want_v
    assert list(grads) == list(want) == list(net.params)
    for name in want:
        assert grads[name].shape == net.params[name].shape
        assert np.array_equal(grads[name], want[name]), name
