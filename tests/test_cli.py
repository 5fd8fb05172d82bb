import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fillreduce
from conftest import blow_up_actor, cycle_pattern, path_pattern
from fillreduce import (NetConfig, PolicyValueNet, SparsityPattern, cli, count_fill,
                        evaluation, fill_in_ratio, generate_delaunay, load_matrix_market,
                        load_ordering, policy_net, save_checkpoint, sparsity, trainer,
                        write_matrix_market)
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


def test_order_gpo_without_model_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_matrix_market", lambda *a: pytest.fail("matrix loaded"))
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


def test_gpo_beyond_the_operator_budget_is_an_error(tmp_path, capsys):
    # one node more than the dense operator's budget allows, and no edges:
    # refused with one error before anything is built for it
    n = policy_net.MAX_POLICY_NODES + 1
    write_matrix_market(SparsityPattern(n), tmp_path / "big.mtx")
    model = tmp_path / "m.ckpt"
    save_checkpoint(PolicyValueNet(NetConfig(), rng=np.random.default_rng(0)), model)
    out, report = tmp_path / "o.txt", tmp_path / "r.csv"
    message = (f"the learned policy takes graphs of at most {n - 1} nodes "
               f"(its dense operator within 1 GiB), got {n} nodes")
    tracemalloc.start()
    try:
        assert run(["order", "--matrix", tmp_path / "big.mtx", "--method", "gpo",
                    "--model", model, "--out", out]) == 2
        assert run(["bench", "--matrices", tmp_path / "*.mtx", "--methods", "gpo",
                    "--model", model, "--out", report]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"
    assert not out.exists()
    assert f'big.mtx,gpo,,,,"error: {message}"\n' in report.read_text()


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 11.9 GiB for an array with shape (40000, 40000) and data type "
     "float64", "error: out of memory: Unable to allocate 11.9 GiB for an array with "
     "shape (40000, 40000) and data type float64"),
    ("", "error: out of memory"),
])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message, line):
    def allocate(*args):
        raise MemoryError(message)

    monkeypatch.setattr(evaluation, "compute_ordering", allocate)
    write_matrix_market(path_pattern(4), tmp_path / "m.mtx")
    assert run(["order", "--matrix", tmp_path / "m.mtx", "--method", "mindeg",
                "--out", tmp_path / "o.txt"]) == 2
    assert capsys.readouterr().err == line + "\n"


def test_non_finite_policy_is_an_error_not_an_ordering(tmp_path, capsys):
    # finite parameters whose log-probs are all NaN: greedy argmax would pick
    # row 0 at every step and return the natural order as a gpo result
    model = tmp_path / "m.ckpt"
    save_checkpoint(blow_up_actor(PolicyValueNet(NetConfig(), rng=np.random.default_rng(0))),
                    model)
    write_matrix_market(cycle_pattern(5), tmp_path / "c5.mtx")
    out = tmp_path / "o.txt"
    assert run(["order", "--matrix", tmp_path / "c5.mtx", "--method", "gpo",
                "--model", model, "--out", out]) == 2
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert err_lines == ["error: the policy's log-probabilities are not finite at step 0"]
    assert not out.exists()
    report = tmp_path / "r.csv"
    assert run(["bench", "--matrices", tmp_path / "*.mtx", "--methods", "mindeg,gpo",
                "--model", model, "--out", report]) == 1
    text = report.read_text()
    assert "c5.mtx,gpo,,,,error: the policy's log-probabilities are not finite at step 0\n" in text
    assert "c5.mtx,mindeg,5,15,2," in text


def test_non_finite_policy_writes_one_error_line(tmp_path):
    # in a plain interpreter, where an overflow in the actor's head would
    # print numpy's warnings before the error
    model = tmp_path / "m.ckpt"
    save_checkpoint(blow_up_actor(PolicyValueNet(NetConfig(), rng=np.random.default_rng(0))),
                    model)
    write_matrix_market(cycle_pattern(5), tmp_path / "c5.mtx")
    done = python(["-m", "fillreduce", "order", "--matrix", tmp_path / "c5.mtx",
                   "--method", "gpo", "--model", model, "--out", tmp_path / "o.txt"])
    assert done.returncode == 2
    assert done.stderr == "error: the policy's log-probabilities are not finite at step 0\n"
    done = python(["-m", "fillreduce", "bench", "--matrices", tmp_path / "*.mtx",
                   "--methods", "gpo", "--model", model, "--out", tmp_path / "r.csv"])
    assert done.returncode == 2
    assert done.stderr.startswith("1 of 1 cells failed") and done.stderr.count("\n") == 1


def test_order_and_bench_never_load_multiprocessing(tmp_path):
    # only training forks a replay worker; the other commands stay lean
    write_matrix_market(cycle_pattern(5), tmp_path / "c5.mtx")
    model = tmp_path / "m.ckpt"
    save_checkpoint(PolicyValueNet(NetConfig(), rng=np.random.default_rng(0)), model)
    probe = ("import runpy, sys\n"
             "try:\n"
             "    runpy.run_module('fillreduce', run_name='__main__')\n"
             "except SystemExit as exc:\n"
             "    assert exc.code == 0, exc.code\n"
             "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'\n")
    for args in (["order", "--matrix", tmp_path / "c5.mtx", "--method", "gpo",
                  "--model", model, "--out", tmp_path / "o.txt"],
                 ["bench", "--matrices", tmp_path / "*.mtx", "--methods", "mindeg,gpo",
                  "--model", model, "--out", tmp_path / "r.csv"]):
        done = python(["-c", probe, *args])
        assert done.returncode == 0, done.stderr


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


@pytest.mark.parametrize("method", evaluation.METHODS)
def test_order_random_writes_the_ordering_bench_scores(tmp_path, capsys, method):
    # order scores its ordering by bench's cell, and for random draws from
    # the same per-file stream
    for name, seed in (("a.mtx", 3), ("b.mtx", 11)):
        write_matrix_market(generate_delaunay(80, np.random.default_rng(seed)), tmp_path / name)
    model = tmp_path / "m.ckpt"
    save_checkpoint(PolicyValueNet(NetConfig(), rng=np.random.default_rng(5)), model)
    report = tmp_path / "r.csv"
    assert run(["bench", "--matrices", tmp_path / "*.mtx", "--methods", method,
                "--model", model, "--seed", 4, "--out", report]) == 0
    rows = [line.split(",") for line in report.read_text().splitlines()[1:3]]
    capsys.readouterr()
    for name, _, n, nnz, fill, fir in rows:
        assert run(["order", "--matrix", tmp_path / name, "--method", method,
                    "--model", model, "--seed", 4, "--out", tmp_path / "perm.txt"]) == 0
        assert f"fir={float(fir):.6g} ->" in capsys.readouterr().out
        p = load_matrix_market(tmp_path / name)
        assert count_fill(p, load_ordering(tmp_path / "perm.txt")) == int(fill)


def test_order_prints_the_fill_its_ordering_carries(tmp_path, capsys, monkeypatch):
    # mindeg and gpo orderings carry the fill their elimination counted, so
    # only natural and random count it again; every line is the one that
    # scoring the written ordering with fill_in_ratio gives
    matrix, model = tmp_path / "g.mtx", tmp_path / "m.ckpt"
    write_matrix_market(generate_delaunay(70, np.random.default_rng(12)), matrix)
    save_checkpoint(PolicyValueNet(NetConfig(), rng=np.random.default_rng(0)), model)
    p = load_matrix_market(matrix)
    counted = []
    monkeypatch.setattr(evaluation, "count_fill",
                        lambda *args: counted.append(1) or count_fill(*args))
    for method in ("natural", "random", "mindeg", "gpo"):
        counted.clear()
        out = tmp_path / f"{method}.txt"
        assert run(["order", "--matrix", matrix, "--method", method, "--model", model,
                    "--out", out]) == 0
        assert len(counted) == (method in ("natural", "random"))
        fir = fill_in_ratio(p, load_ordering(out))
        assert capsys.readouterr().out == (f"{matrix}: n=70, method={method}, "
                                           f"fir={fir:.6g} -> {out}\n")


def test_order_negative_seed_exit_2(tmp_path, capsys):
    write_matrix_market(path_pattern(3), tmp_path / "a.mtx")
    out = tmp_path / "perm.txt"
    assert run(["order", "--matrix", tmp_path / "a.mtx", "--method", "random",
                "--seed", -1, "--out", out]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    ("train", "--out"), ("train", "--log"), ("bench", "--out"), ("order", "--out"),
])
def test_missing_output_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, option):
    # writing into a missing directory used to fail only after the whole run
    for work in ("load_training_set", "train", "load_matrix_market", "run_benchmark"):
        monkeypatch.setattr(cli, work, lambda *args, work=work, **kw: pytest.fail(f"{work} ran"))
    args = {"train": ["train", "--data", tmp_path, "--out", tmp_path / "m.ckpt"],
            "bench": ["bench", "--matrices", tmp_path / "*.mtx", "--methods", "natural",
                      "--out", tmp_path / "r.csv"],
            "order": ["order", "--matrix", tmp_path / "a.mtx", "--method", "natural",
                      "--out", tmp_path / "p.txt"]}[command]
    missing = tmp_path / "missing" / "file"
    assert run(args + [option, missing]) == 2    # the last value of an option holds
    assert capsys.readouterr().err == (f"error: {option} {missing}: directory "
                                       f"{missing.parent} does not exist\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", ["same path", "symlink", "hard link"])
@pytest.mark.parametrize("args, clash, target", [
    (["train", "--data", ".", "--log", "m.ckpt"], "--log", "m.ckpt"),
    (["order", "--matrix", "a.mtx", "--method", "mindeg"], "--matrix", "a.mtx"),
    (["order", "--matrix", "a.mtx", "--method", "gpo", "--model", "m.ckpt"], "--model", "m.ckpt"),
    (["bench", "--matrices", "*.mtx", "--methods", "natural"], "--matrices", "a.mtx"),
    (["bench", "--matrices", "*.mtx", "--methods", "gpo", "--model", "m.ckpt"], "--model", "m.ckpt"),
    (["train", "--data", "."], "--data", "a.mtx"),
], ids=["train-log", "order-matrix", "order-model", "bench-matrices", "bench-model", "train-data"])
def test_output_naming_an_input_or_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                                 args, clash, target, spelling):
    # train --out m.ckpt --log m.ckpt and order --out a.mtx --matrix a.mtx
    # used to overwrite the file and exit 0
    for work in ("load_training_set", "train", "load_matrix_market", "load_checkpoint",
                 "run_benchmark"):
        monkeypatch.setattr(cli, work, lambda *args, work=work, **kw: pytest.fail(f"{work} ran"))
    write_matrix_market(path_pattern(3), tmp_path / "a.mtx")
    (tmp_path / "m.ckpt").write_bytes(b"a checkpoint")
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    out = tmp_path / target
    if spelling == "symlink":
        out = tmp_path / "link"
        out.symlink_to(tmp_path / target)
    elif spelling == "hard link":
        out = tmp_path / "link"
        os.link(tmp_path / target, out)
    args = [tmp_path / a if a in ("a.mtx", "m.ckpt", "*.mtx", ".") else a for a in args]
    assert run(args + ["--out", out]) == 2
    assert capsys.readouterr().err == (f"error: --out {out} and {clash} {tmp_path / target} "
                                       f"name the same file\n")
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir() if f.name != "link"} == before


@pytest.mark.parametrize("option, name", [
    ("--out", "manifest.csv"), ("--log", "manifest.csv"), ("--out", "delaunay_00000.mtx"),
    ("--log", "g.txt"),
])
def test_train_output_naming_a_file_of_its_set_exits_2_before_any_work(tmp_path, capsys,
                                                                       monkeypatch, option, name):
    # train --out d/delaunay_00000.mtx used to write the checkpoint over that
    # graph, and the next train over d failed to decode it
    data = tmp_path / "d"
    run(["gen", "--count", 2, "--min", 8, "--max", 10, "--seed", 3, "--out", data])
    (data / "delaunay_00001.mtx").rename(data / "g.txt")     # named by the manifest alone
    manifest = data / "manifest.csv"
    manifest.write_text(manifest.read_text().replace("delaunay_00001.mtx", "g.txt"))
    before = {f.name: f.read_bytes() for f in data.iterdir()}
    for work in ("load_training_set", "train"):
        monkeypatch.setattr(cli, work, lambda *args, work=work, **kw: pytest.fail(f"{work} ran"))
    capsys.readouterr()
    outputs = {"--out": tmp_path / "m.ckpt", option: data / name}
    assert run(["train", "--data", data, *[a for kv in outputs.items() for a in kv]]) == 2
    assert capsys.readouterr().err == (f"error: {option} {data / name} and --data "
                                       f"{data / name} name the same file\n")
    assert {f.name: f.read_bytes() for f in data.iterdir()} == before


@pytest.mark.parametrize("option", ["--out", "--log"])
@pytest.mark.parametrize("spelling", ["same path", "symlinked directory"])
def test_train_output_joining_a_set_without_manifest_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, option, spelling):
    # train --out d/new.mtx over a set without a manifest used to exit 0, and
    # the next train over d globbed the checkpoint and failed to decode it
    data = tmp_path / "d"
    run(["gen", "--count", 2, "--min", 8, "--max", 10, "--seed", 3, "--out", data])
    (data / "manifest.csv").unlink()
    before = {f.name: f.read_bytes() for f in data.iterdir()}
    for work in ("load_training_set", "train"):
        monkeypatch.setattr(cli, work, lambda *args, work=work, **kw: pytest.fail(f"{work} ran"))
    folder = data
    if spelling == "symlinked directory":
        folder = tmp_path / "link"
        folder.symlink_to(data)
    capsys.readouterr()
    outputs = {"--out": tmp_path / "m.ckpt", option: folder / "new.mtx"}
    assert run(["train", "--data", data, *[a for kv in outputs.items() for a in kv]]) == 2
    assert capsys.readouterr().err == (f"error: {option} {folder / 'new.mtx'}: --data {data} "
                                       f"has no manifest, so a .mtx file there is read as "
                                       f"a graph of the set\n")
    assert {f.name: f.read_bytes() for f in data.iterdir()} == before


def test_train_names_the_graph_file_that_fails_to_load(tmp_path, capsys):
    data = tmp_path / "d"
    run(["gen", "--count", 2, "--min", 8, "--max", 10, "--seed", 3, "--out", data])
    bad = data / "delaunay_00001.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 x\n")
    capsys.readouterr()
    assert run(["train", "--data", data, "--out", tmp_path / "m.ckpt"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: malformed entry line: '2 x'\n"


def test_train_names_a_manifest_that_is_not_utf8(tmp_path, capsys):
    # the codec's message alone used to end train, naming no file
    data = tmp_path / "d"
    run(["gen", "--count", 2, "--min", 8, "--max", 10, "--seed", 3, "--out", data])
    manifest = data / "manifest.csv"
    manifest.write_bytes(b"id,file\n0,caf\xd1.mtx\n")
    capsys.readouterr()
    assert run(["train", "--data", data, "--out", tmp_path / "m.ckpt"]) == 2
    assert capsys.readouterr().err == (f"error: {manifest}: 'utf-8' codec can't decode byte "
                                       f"0xd1 in position 13: invalid continuation byte\n")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("args", [
    ["order", "--matrix", "a.mtx", "--method", "mindeg"],
    ["bench", "--matrices", "*.mtx", "--methods", "natural,mindeg"],
], ids=["order", "bench"])
def test_model_that_is_not_read_may_share_the_output_path(tmp_path, capsys, args):
    # only gpo reads --model, so no other method can overwrite it
    write_matrix_market(path_pattern(3), tmp_path / "a.mtx")
    out = tmp_path / "o.txt"
    args = [tmp_path / a if a in ("a.mtx", "*.mtx") else a for a in args]
    assert run(args + ["--model", out, "--out", out]) == 0
    assert out.exists()
    assert capsys.readouterr().err == ""


def python(args):
    """A new interpreter run with ``args``, with Python's and numpy's default
    warning filters; the package directory on the path is enough, nothing
    needs installing."""
    src = Path(fillreduce.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_runs_the_cli():
    done = python(["-m", "fillreduce", "--help"])
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
                                  "huge_layers_model", "float_width_model", "v1_model",
                                  "v2_model", "nan_model", "manifest_without_file"])
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
            "format_version": 3, "backbone": "mixhop", "num_layers": 20000,
            "hidden_per_hop": 16, "in_dim": 2}))
    elif case == "float_width_model":
        _checkpoint_with_meta(model, json.dumps({
            "format_version": 3, "backbone": "mixhop", "num_layers": 2,
            "hidden_per_hop": 16.0, "in_dim": 2}))
    elif case in ("v1_model", "v2_model"):
        _checkpoint_with_meta(model, json.dumps({
            "format_version": int(case[1]), "backbone": "mixhop", "num_layers": 2,
            "hidden_per_hop": 16, "in_dim": 2}))
    elif case == "nan_model":
        net = PolicyValueNet(NetConfig(), rng=np.random.default_rng(0))
        net.params["head.w"][0, 0] = np.nan
        save_checkpoint(net, model)
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
    if case in ("v1_model", "v2_model"):
        version = f"unsupported version {case[1]}"
        assert version in err_lines[0] and "re-run `train`" in err_lines[0]


def test_train_non_finite_gradient_exits_2(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data"
    run(["gen", "--count", 2, "--min", 8, "--max", 10, "--seed", 3, "--out", data])

    def nan_gradients(net, pattern, trace, returns, worker):
        grads = {name: np.full_like(arr, np.nan) for name, arr in net.params.items()}
        return grads, [0.0] * len(trace), [0.0] * len(trace)

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
