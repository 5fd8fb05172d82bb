import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import (cycle_pattern, fill_edges, grid_pattern, path_pattern, patterns,
                      star_pattern)
from fillreduce import (EliminationGraph, Ordering, PolicyValueNet, SparsityPattern,
                        TrainerConfig, count_fill, fill_in_ratio, generate_delaunay,
                        load_matrix_market, min_degree_order, run_benchmark, train,
                        write_matrix_market)
from fillreduce.evaluation import METHODS, compute_ordering, gpo_order
from fillreduce.policy_net import NetConfig, save_checkpoint


def test_fir_zero_fill_path():
    p = path_pattern(6)
    assert fill_in_ratio(p, min_degree_order(p)) == 0.0


def test_fir_star_center_first():
    # 3 fill edges over nnz_sym = 2*3 + 4 = 10
    assert fill_in_ratio(star_pattern(3), [0, 1, 2, 3]) == pytest.approx(0.6)


def test_fir_c4_any_order():
    c4 = cycle_pattern(4)
    for order in ([0, 1, 2, 3], [2, 0, 3, 1], [3, 2, 1, 0]):
        assert fill_in_ratio(c4, order) == pytest.approx(1.0 / 6.0)


def write_pattern(tmp_path, name, pattern):
    path = tmp_path / name
    write_matrix_market(pattern, path)
    return path


def test_benchmark_natural_on_path(tmp_path):
    path_file = write_pattern(tmp_path, "path.mtx", path_pattern(5))
    report = run_benchmark([path_file], ["natural"])
    assert len(report.rows) == 1
    row = report.rows[0]
    assert (row.matrix, row.method, row.n) == ("path.mtx", "natural", 5)
    assert row.fill == 0 and row.fir == 0.0
    assert report.method_means() == {"natural": 0.0}


def test_benchmark_c4_both_methods(tmp_path):
    c4_file = write_pattern(tmp_path, "c4.mtx", cycle_pattern(4))
    report = run_benchmark([c4_file], ["natural", "mindeg"])
    for row in report.rows:
        assert row.fir == pytest.approx(1.0 / 6.0)
        assert row.nnz == 12 and row.fill == 1


def test_benchmark_empty_matrix_has_zero_fir(tmp_path):
    empty = tmp_path / "empty.mtx"
    empty.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n0 0 0\n")
    model = tmp_path / "m.ckpt"
    save_checkpoint(PolicyValueNet(NetConfig(), rng=np.random.default_rng(2)), model)
    report = run_benchmark([empty], ["natural", "random", "mindeg", "gpo"], model)
    cells = [(r.n, r.nnz, r.fill, r.fir, r.error) for r in report.rows]
    assert cells == [(0, 0, 0, 0.0, None)] * 4
    assert report.method_means() == {"natural": 0.0, "random": 0.0, "mindeg": 0.0,
                                     "gpo": 0.0}


def test_benchmark_survives_corrupted_input(tmp_path):
    good = write_pattern(tmp_path, "good.mtx", path_pattern(4))
    bad = tmp_path / "bad.mtx"
    bad.write_text("this is not a matrix\n")
    report = run_benchmark([good, bad], ["natural", "mindeg"])
    errors = [r for r in report.rows if r.error is not None]
    ok = [r for r in report.rows if r.error is None]
    assert len(errors) == 2 and len(ok) == 2
    assert all(r.matrix == "bad.mtx" for r in errors)
    assert report.num_errors == 2


def test_benchmark_missing_model_records_errors(tmp_path):
    f = write_pattern(tmp_path, "p.mtx", path_pattern(4))
    report = run_benchmark([f], ["natural", "gpo"])
    by_method = {r.method: r for r in report.rows}
    assert by_method["natural"].error is None
    assert "model" in by_method["gpo"].error


def test_benchmark_with_model(tmp_path):
    f = write_pattern(tmp_path, "p.mtx", path_pattern(6))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(PolicyValueNet(rng=np.random.default_rng(0)), ckpt)
    report = run_benchmark([f], ["gpo"], model_path=ckpt)
    row = report.rows[0]
    assert row.error is None
    assert 0 <= row.fir


def test_benchmark_rejects_unknown_method(tmp_path):
    f = write_pattern(tmp_path, "p.mtx", path_pattern(3))
    with pytest.raises(ValueError):
        run_benchmark([f], ["colamd"])
    # an empty list would give a header-only report, a repeat duplicate rows
    for methods in ([], ["natural", "mindeg", "natural"]):
        with pytest.raises(ValueError, match="without repeats"):
            run_benchmark([f], methods)


def test_csv_layout_and_determinism(tmp_path):
    files = [write_pattern(tmp_path, "b.mtx", cycle_pattern(4)),
             write_pattern(tmp_path, "a.mtx", path_pattern(5))]
    report = run_benchmark(files, ["natural", "random"], seed=7)
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == "matrix,method,n,nnz,fill,fir"
    # rows sorted by matrix name
    assert lines[1].startswith("a.mtx,natural")
    assert lines[2].startswith("a.mtx,random")
    assert lines[3].startswith("b.mtx,natural")
    blank = lines.index("")
    assert lines[blank + 1] == "method,mean_fir"
    # repeat run is byte-identical
    again = run_benchmark(files, ["natural", "random"], seed=7)
    assert again.to_csv() == text


def test_random_rows_keyed_per_matrix(tmp_path):
    a = write_pattern(tmp_path, "a.mtx", cycle_pattern(6))
    b = write_pattern(tmp_path, "b.mtx", cycle_pattern(7))
    solo = run_benchmark([a], ["random"], seed=3).rows[0]
    paired = [r for r in run_benchmark([a, b], ["random"], seed=3).rows
              if r.matrix == "a.mtx"][0]
    assert solo.fir == paired.fir  # row independent of the rest of the run


def test_natural_fir_self_consistency(tmp_path):
    # report value equals an independent re-run of the factorization
    p = cycle_pattern(8)
    f = write_pattern(tmp_path, "c8.mtx", p)
    row = run_benchmark([f], ["natural"]).rows[0]
    fill = len(fill_edges(p, range(8)))
    assert row.fill == fill
    assert row.fir == pytest.approx(2 * fill / (2 * len(p.edges) + p.n))


def test_gpo_order_greedy_matches_compute_ordering():
    p = path_pattern(7)
    net = PolicyValueNet(NetConfig(), rng=np.random.default_rng(1))
    assert gpo_order(net, p) == compute_ordering("gpo", p, model=net)
    with pytest.raises(ValueError):
        compute_ordering("gpo", p)
    with pytest.raises(ValueError):
        compute_ordering("amd", p)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=25, deadline=None)
@given(p=patterns(max_n=12))
@example(p=SparsityPattern(0, []))
@example(p=SparsityPattern(1, []))
def test_compute_ordering_valid_for_every_method(method, p):
    model = PolicyValueNet(NetConfig(), rng=np.random.default_rng(2))
    ordering = compute_ordering(method, p, model=model, rng=np.random.default_rng(0))
    assert isinstance(ordering, Ordering)
    assert sorted(ordering) == list(range(p.n))


@pytest.fixture
def eliminations(monkeypatch):
    """A list that gets one entry per ``EliminationGraph.eliminate`` call."""
    calls = []
    original = EliminationGraph.eliminate

    def counted(self, v):
        calls.append(v)
        return original(self, v)

    monkeypatch.setattr(EliminationGraph, "eliminate", counted)
    return calls


def test_scoring_eliminates_nothing(tmp_path, eliminations):
    p = generate_delaunay(60, np.random.default_rng(8))
    order = min_degree_order(p)
    assert fill_in_ratio(p, order) == 2.0 * count_fill(p, order) / (2 * len(p.edges) + p.n)
    assert fill_in_ratio(p, range(p.n)) > 0
    assert eliminations == []

    files = [write_pattern(tmp_path, "delaunay.mtx", p),
             write_pattern(tmp_path, "grid.mtx", grid_pattern(6))]
    report = run_benchmark(files, ["natural", "random"])
    assert report.num_errors == 0 and eliminations == []
    # a gpo cell's rollout eliminates in the EliminationGraph, at most one
    # step per node of each file, and is scored by count_fill as well
    model = tmp_path / "model.ckpt"
    save_checkpoint(PolicyValueNet(NetConfig(), rng=np.random.default_rng(1)), model)
    report = run_benchmark(files, ["gpo"], model_path=model)
    assert report.num_errors == 0 and 0 < len(eliminations) < p.n + 36
    eliminations.clear()
    # a mindeg cell chooses in its own neighbor sets and scores by count_fill
    report = run_benchmark(files, ["mindeg"])
    assert report.num_errors == 0 and eliminations == []


@pytest.fixture
def edge_views(monkeypatch):
    """A list that gets one entry per build of a pattern's ``edges`` frozenset."""
    calls = []
    view = SparsityPattern.edges

    def counted(p):
        calls.append(p)
        return view.fget(p)

    monkeypatch.setattr(SparsityPattern, "edges", property(counted))
    return calls


def test_scoring_and_training_build_no_edge_set(tmp_path, edge_views):
    # every reader works from the edge array; only callers that ask for
    # ``edges`` pay for a tuple per edge
    p = generate_delaunay(60, np.random.default_rng(8))
    files = [write_pattern(tmp_path, "delaunay.mtx", p),
             write_pattern(tmp_path, "grid.mtx", grid_pattern(6))]
    model = tmp_path / "model.ckpt"
    save_checkpoint(PolicyValueNet(NetConfig(), rng=np.random.default_rng(1)), model)
    report = run_benchmark(files, ["natural", "mindeg", "gpo"], model_path=model)
    assert report.num_errors == 0 and len(report.rows) == 6
    _, log = train([load_matrix_market(files[0])], TrainerConfig(seed=3))
    assert len(log) == 1
    assert edge_views == []
    assert p.edges and len(edge_views) == 1   # the spy sees a build
