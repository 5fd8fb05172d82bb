import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import evaluate, path_pattern, random_pattern
from fillreduce import (EliminationGraph, NetConfig, NetworkError, PolicyValueNet,
                        SparsityPattern, backward, build_propagation,
                        compute_features, forward, load_checkpoint,
                        normalize_features, save_checkpoint)
from fillreduce.policy_net import log_softmax_backward, param_shapes


def state(pattern):
    return normalize_features(compute_features(EliminationGraph(pattern)))


def adjacency(pattern):
    return compute_features(EliminationGraph(pattern)).adjacency


def fresh_net(seed=0, **kwargs):
    return PolicyValueNet(NetConfig(**kwargs), rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# propagation operator
# ---------------------------------------------------------------------------

def test_propagation_isolated_node():
    prop = build_propagation(adjacency(SparsityPattern(1, [])))
    assert prop.tolist() == [[1.0]]


def test_propagation_single_edge():
    prop = build_propagation(adjacency(SparsityPattern(2, [(0, 1)])))
    assert np.allclose(prop, [[0.5, 0.5], [0.5, 0.5]])


def test_propagation_singlehop_rows_average():
    cfg = NetConfig(backbone="singlehop")
    prop = build_propagation(adjacency(path_pattern(3)), cfg)
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
    g = EliminationGraph(SparsityPattern(1, []))
    g.eliminate(0)
    with pytest.raises(NetworkError, match="empty graph"):
        forward(net, normalize_features(compute_features(g)))

    x = state(path_pattern(3))
    with pytest.raises(NetworkError, match="adjacency has 3 live nodes"):
        forward(net, replace(x, x=x.x[1:]))  # features for fewer nodes


def test_automorphic_leaves_score_equally():
    # the two ends of a 3-path are exchangeable, so any parameters must
    # score them identically
    for seed in range(5):
        net = fresh_net(seed)
        x = state(path_pattern(3))
        log_probs, _ = forward(net, x)
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
    grads = backward(net, tape, np.zeros(6), 0.0)
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
    with pytest.raises(NetworkError):
        backward(net2, tape, np.zeros(4), 0.0)
    with pytest.raises(NetworkError):
        backward(net1, tape, np.zeros(3), 0.0)


def test_backward_needs_the_critic_half():
    net = fresh_net(3)
    x = state(path_pattern(4))
    _, tape = forward(net, x)
    with pytest.raises(NetworkError, match="value"):
        backward(net, tape, np.zeros(4), 0.0)


def finite_difference_check(net, x, rng, step=1e-4, tol=1e-3):
    c_lp = rng.normal(size=len(x.nodes))
    c_v = float(rng.normal())

    def scalar_loss():
        lp, value, _ = evaluate(net, x)
        return float((c_lp * lp).sum() + c_v * value)

    _, _, tape = evaluate(net, x)
    grads = backward(net, tape, c_lp, c_v)
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
    assert shapes["actor.layer0.hop1.w"] == (2, 16)
    assert shapes["critic.layer1.hop2.w"] == (48, 16)
    assert shapes["actor.head.w"] == (48,)


def test_mismatched_params_rejected_at_construction():
    net = fresh_net(13)
    bad = dict(net.params)
    bad["actor.head.w"] = np.zeros(7)
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
    assert np.array_equal(forward(net, x)[0], forward(loaded, x)[0])


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
    bad["actor.head.w"] = np.zeros(3)
    with open(tmp_path / "bad_shape.ckpt", "wb") as fh:
        np.savez(fh, **bad)
    with pytest.raises(NetworkError, match="mismatched"):
        load_checkpoint(tmp_path / "bad_shape.ckpt")

    # missing parameter
    bad = dict(arrays)
    del bad["critic.head.b"]
    with open(tmp_path / "missing.ckpt", "wb") as fh:
        np.savez(fh, **bad)
    with pytest.raises(NetworkError, match="missing"):
        load_checkpoint(tmp_path / "missing.ckpt")

    # unknown version
    bad = dict(arrays)
    meta = json.loads(str(bad["__meta__"]))
    meta["format_version"] = 99
    bad["__meta__"] = np.array(json.dumps(meta))
    with open(tmp_path / "vers.ckpt", "wb") as fh:
        np.savez(fh, **bad)
    with pytest.raises(NetworkError, match="version"):
        load_checkpoint(tmp_path / "vers.ckpt")

    # metadata that is not JSON, not an object, short of a field, with a
    # non-integer layer count, or built for another feature count; each
    # error names the file
    meta = json.loads(str(arrays["__meta__"]))
    no_backbone = {k: v for k, v in meta.items() if k != "backbone"}
    cases = {
        "garbage": ("{not json", "bad metadata"),
        "not_object": ("[1, 2]", "bad metadata"),
        "no_field": (json.dumps(no_backbone), "bad metadata"),
        "in_dim": (json.dumps({**meta, "in_dim": 5}), "input features"),
        "float_layers": (json.dumps({**meta, "num_layers": 2.0}), "bad metadata"),
    }
    for name, (text, message) in cases.items():
        bad_meta = tmp_path / f"{name}.ckpt"
        with open(bad_meta, "wb") as fh:
            np.savez(fh, **{**arrays, "__meta__": np.array(text)})
        with pytest.raises(NetworkError, match=message) as info:
            load_checkpoint(bad_meta)
        assert str(bad_meta) in str(info.value)

    # an architecture far larger than the archive is refused by its
    # parameter count, before any of its names is built
    huge = tmp_path / "huge.ckpt"
    huge_meta = json.dumps({**meta, "num_layers": 20000})
    with open(huge, "wb") as fh:
        np.savez(fh, **{**arrays, "__meta__": np.array(huge_meta)})
    with pytest.raises(NetworkError, match="declares 240004 parameter arrays") as info:
        load_checkpoint(huge)
    assert len(str(info.value)) < 1024

    # not an archive at all
    (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint")
    with pytest.raises(NetworkError):
        load_checkpoint(tmp_path / "junk.ckpt")
