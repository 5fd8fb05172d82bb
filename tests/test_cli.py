import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fillreduce
from conftest import cycle_pattern, path_pattern
from fillreduce import (NetConfig, PolicyValueNet, load_ordering, save_checkpoint,
                        sparsity, trainer, write_matrix_market)
from fillreduce.cli import main


def run(args):
    return main([str(a) for a in args])


def test_gen_writes_graphs_and_manifest(tmp_path, capsys):
    out = tmp_path / "data"
    assert run(["gen", "--count", 5, "--min", 10, "--max", 20,
                "--seed", 1, "--out", out]) == 0
    assert (out / "manifest.csv").exists()
    assert len(list(out.glob("*.mtx"))) == 5
    assert "wrote 5 Delaunay graphs" in capsys.readouterr().out


def test_train_order_bench_pipeline(tmp_path, capsys):
    data = tmp_path / "data"
    run(["gen", "--count", 4, "--min", 8, "--max", 14, "--seed", 2, "--out", data])

    model = tmp_path / "model.ckpt"
    assert run(["train", "--data", data, "--epochs", 2, "--seed", 0,
                "--out", model]) == 0
    assert model.exists()
    assert (tmp_path / "model.ckpt.log").exists()
    log_lines = (tmp_path / "model.ckpt.log").read_text().strip().splitlines()
    assert len(log_lines) == 8  # 4 graphs x 2 epochs
    assert all(len(line.split(",")) == 5 for line in log_lines)

    matrix = sorted(data.glob("*.mtx"))[0]
    for method in ("natural", "random", "mindeg", "gpo"):
        perm_file = tmp_path / f"{method}.txt"
        args = ["order", "--matrix", matrix, "--method", method,
                "--out", perm_file]
        if method == "gpo":
            args += ["--model", model]
        assert run(args) == 0
        load_ordering(perm_file)  # validates the permutation

    report = tmp_path / "report.csv"
    assert run(["bench", "--matrices", data / "*.mtx",
                "--methods", "natural,mindeg,gpo", "--model", model,
                "--seed", 0, "--out", report]) == 0
    text = report.read_text()
    assert text.startswith("matrix,method,n,nnz,fill,fir\n")
    assert "mean_fir" in text
    out = capsys.readouterr().out
    assert "mean FIR natural" in out


def test_order_gpo_without_model_fails(tmp_path, capsys):
    f = tmp_path / "m.mtx"
    write_matrix_market(path_pattern(4), f)
    rc = run(["order", "--matrix", f, "--method", "gpo", "--out", tmp_path / "o.txt"])
    assert rc == 2
    assert "requires --model" in capsys.readouterr().err


def test_order_empty_matrix(tmp_path, capsys):
    f = tmp_path / "empty.mtx"
    f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n0 0 0\n")
    model = tmp_path / "m.ckpt"
    save_checkpoint(PolicyValueNet(NetConfig(), rng=np.random.default_rng(0)), model)
    out = tmp_path / "o.txt"
    for method in ("mindeg", "gpo"):
        assert run(["order", "--matrix", f, "--method", method, "--model", model,
                    "--out", out]) == 0
        assert out.read_text() == ""
        assert f"n=0, method={method}, fir=0 ->" in capsys.readouterr().out


def test_oversized_matrix_is_an_error(tmp_path, capsys, monkeypatch):
    # a lowered limit, so no command ever allocates for a huge declared n
    monkeypatch.setattr(sparsity, "MAX_NODES", 3)
    write_matrix_market(path_pattern(4), tmp_path / "big.mtx")
    write_matrix_market(path_pattern(3), tmp_path / "ok.mtx")
    out = tmp_path / "o.txt"
    assert run(["order", "--matrix", tmp_path / "big.mtx", "--method", "mindeg",
                "--out", out]) == 2
    assert "error: matrix declares 4 nodes, more than the supported 3" in capsys.readouterr().err
    assert not out.exists()
    report = tmp_path / "r.csv"
    assert run(["bench", "--matrices", tmp_path / "*.mtx", "--methods", "natural",
                "--out", report]) == 1
    text = report.read_text()
    assert 'big.mtx,natural,,,,"error: matrix declares 4 nodes' in text
    assert "ok.mtx,natural,3,7,0," in text


def test_bench_partial_failure_exit_code(tmp_path, capsys):
    write_matrix_market(cycle_pattern(4), tmp_path / "ok.mtx")
    (tmp_path / "broken.mtx").write_text("garbage\n")
    report = tmp_path / "r.csv"
    rc = run(["bench", "--matrices", tmp_path / "*.mtx",
              "--methods", "natural", "--seed", 0, "--out", report])
    assert rc == 1
    text = report.read_text()
    assert "broken.mtx,natural,,,,error: malformed MatrixMarket header" in text
    assert "ok.mtx,natural,4,12,1," in text
    assert "1 of 2 cells failed" in capsys.readouterr().err


def test_bench_no_matches_and_bad_method(tmp_path, capsys):
    rc = run(["bench", "--matrices", tmp_path / "none*.mtx",
              "--methods", "natural", "--out", tmp_path / "r.csv"])
    assert rc == 2
    write_matrix_market(path_pattern(3), tmp_path / "a.mtx")
    rc = run(["bench", "--matrices", tmp_path / "*.mtx",
              "--methods", "natural,colamd", "--out", tmp_path / "r.csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no files match" in err and "unknown method" in err


@pytest.mark.parametrize("methods", [",", "natural,natural"])
def test_bench_empty_or_repeated_methods_exit_2(tmp_path, capsys, methods):
    write_matrix_market(path_pattern(3), tmp_path / "a.mtx")
    report = tmp_path / "r.csv"
    assert run(["bench", "--matrices", tmp_path / "*.mtx", "--methods", methods,
                "--out", report]) == 2
    assert "non-empty list without repeats" in capsys.readouterr().err
    assert not report.exists()


def test_bench_negative_seed_exit_2(tmp_path, capsys):
    write_matrix_market(path_pattern(3), tmp_path / "a.mtx")
    report = tmp_path / "r.csv"
    assert run(["bench", "--matrices", tmp_path / "*.mtx", "--methods", "natural,mindeg",
                "--seed", -1, "--out", report]) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be non-negative, got -1\n"
    assert not report.exists()


def test_gen_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "data"
    assert run(["gen", "--count", 2, "--min", 6, "--max", 9, "--seed", -1,
                "--out", out]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_train_negative_seed_exit_2(tmp_path, capsys):
    data = tmp_path / "data"
    run(["gen", "--count", 2, "--min", 6, "--max", 9, "--seed", 3, "--out", data])
    capsys.readouterr()
    model = tmp_path / "m.ckpt"
    assert run(["train", "--data", data, "--epochs", 1, "--seed", -1, "--out", model]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not model.exists()


def test_order_negative_seed_exit_2(tmp_path, capsys):
    write_matrix_market(path_pattern(3), tmp_path / "a.mtx")
    out = tmp_path / "perm.txt"
    assert run(["order", "--matrix", tmp_path / "a.mtx", "--method", "random",
                "--seed", -1, "--out", out]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_python_m_runs_the_cli():
    # the package directory on the path is enough; nothing needs installing
    src = Path(fillreduce.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-m", "fillreduce", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: fillreduce")
    for command in ("gen", "train", "order", "bench"):
        assert command in done.stdout


@pytest.mark.parametrize("bounds", [(60, sparsity.MAX_NODES + 1),
                                    (sparsity.MAX_NODES + 1, sparsity.MAX_NODES + 1)])
def test_gen_above_max_nodes_exit_2(tmp_path, capsys, bounds):
    out = tmp_path / "data"
    assert run(["gen", "--count", 3, "--min", bounds[0], "--max", bounds[1],
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: invalid size bounds")
    assert str(sparsity.MAX_NODES) in err
    assert not out.exists()


def test_train_with_backbone_and_reward_flags(tmp_path):
    data = tmp_path / "data"
    run(["gen", "--count", 2, "--min", 6, "--max", 9, "--seed", 3, "--out", data])
    model = tmp_path / "m.ckpt"
    assert run(["train", "--data", data, "--epochs", 1, "--seed", 1,
                "--out", model, "--backbone", "singlehop", "--reward", "raw",
                "--log", tmp_path / "t.log"]) == 0
    from fillreduce import load_checkpoint
    assert load_checkpoint(model).config.backbone == "singlehop"
    assert (tmp_path / "t.log").exists()


def test_cli_reproducibility(tmp_path):
    data = tmp_path / "data"
    run(["gen", "--count", 3, "--min", 6, "--max", 10, "--seed", 5, "--out", data])
    reports = []
    for tag in ("one", "two"):
        model = tmp_path / f"{tag}.ckpt"
        run(["train", "--data", data, "--epochs", 1, "--seed", 4, "--out", model])
        report = tmp_path / f"{tag}.csv"
        run(["bench", "--matrices", data / "*.mtx", "--methods", "gpo,random",
             "--model", model, "--seed", 6, "--out", report])
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def _checkpoint_with_meta(path, meta):
    net = PolicyValueNet(NetConfig(), rng=np.random.default_rng(0))
    np.savez(path, __meta__=np.array(meta), **net.params)


@pytest.mark.parametrize("case", ["malformed_matrix", "missing_model", "bad_meta_model",
                                  "huge_layers_model", "manifest_without_file"])
def test_bad_inputs_exit_2_with_one_error_line(tmp_path, capsys, case):
    matrix = tmp_path / "m.mtx"
    write_matrix_market(path_pattern(4), matrix)
    model = tmp_path / "model.npz"          # missing unless a case writes it
    method = "gpo"
    if case == "malformed_matrix":
        matrix.write_text("garbage\n")
        method = "mindeg"
    elif case == "bad_meta_model":
        _checkpoint_with_meta(model, "{not json")
    elif case == "huge_layers_model":
        _checkpoint_with_meta(model, json.dumps({
            "format_version": 1, "backbone": "mixhop", "num_layers": 20000,
            "hidden_per_hop": 16, "in_dim": 2}))
    args = ["order", "--matrix", matrix, "--method", method, "--model", model,
            "--out", tmp_path / "o.txt"]
    if case == "manifest_without_file":
        (tmp_path / "manifest.csv").write_text("id,name\n0,m.mtx\n")
        args = ["train", "--data", tmp_path, "--out", tmp_path / "o.txt"]
    assert run(args) == 2
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "o.txt").exists()


def test_train_non_finite_gradient_exits_2(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    run(["gen", "--count", 2, "--min", 8, "--max", 10, "--seed", 3, "--out", data])

    def nan_gradients(net, record, returns):
        grads = {name: np.full_like(arr, np.nan) for name, arr in net.params.items()}
        return grads, [0.0] * len(record)

    monkeypatch.setattr(trainer, "episode_gradients", nan_gradients)
    capsys.readouterr()
    assert run(["train", "--data", data, "--epochs", 1, "--out", tmp_path / "m.ckpt"]) == 2
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: non-finite training values in epoch 1, graph 0")
    assert not (tmp_path / "m.ckpt").exists()


def test_train_negative_checkpoint_every_exits_2(tmp_path, capsys):
    data = tmp_path / "data"
    run(["gen", "--count", 2, "--min", 8, "--max", 10, "--seed", 3, "--out", data])
    capsys.readouterr()
    assert run(["train", "--data", data, "--epochs", 1, "--checkpoint-every", -2,
                "--out", tmp_path / "m.ckpt"]) == 2
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: checkpoint_every must not be negative")
    assert not (tmp_path / "m.ckpt").exists()
