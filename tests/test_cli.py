import numpy as np

from conftest import cycle_pattern, path_pattern
from fillreduce import load_ordering, write_matrix_market
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
    out = tmp_path / "o.txt"
    assert run(["order", "--matrix", f, "--method", "mindeg", "--out", out]) == 0
    assert out.read_text() == ""
    assert "n=0, method=mindeg, fir=0 ->" in capsys.readouterr().out


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
