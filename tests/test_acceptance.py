"""Acceptance criteria, one test per criterion.

Every test prints a single ``ACCEPTANCE <k> (<name>): PASS|FAIL`` line, so
``pytest -s tests/test_acceptance.py`` doubles as the acceptance report.
Criteria 7-9 train real policies; run times are minutes, not seconds.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (ReferenceGraph, cycle_pattern, evaluate, fill_edges, fill_steps,
                      gradients, live_edges, path_pattern, pattern_features, random_pattern,
                      random_tree)
from fillreduce import (EliminationGraph, NetConfig, PolicyValueNet,
                        SparsityPattern, TrainerConfig,
                        adaptive_saturation_return,
                        fill_in_ratio, fill_path_oracle,
                        generate_training_set, min_degree_order, natural_order, normalize_features,
                        random_order, rollout, symbolic_factorize, train)
from fillreduce.cli import main as cli_main
from fillreduce.evaluation import gpo_order

# fixed seeds for the scaled-down training checks
TRAIN_DATA_SEED = 1001
HELDOUT_DATA_SEED = 2002
TRAIN_SEED = 0


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "oracle equivalence, 1000 random cases n<=10"):
        rng = np.random.default_rng(90)
        start = time.monotonic()
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            p = random_pattern(rng, n, density=float(rng.uniform(0.1, 0.9)))
            perm = [int(v) for v in rng.permutation(n)]
            fill = fill_edges(p, perm)
            assert fill == fill_path_oracle(p, perm)
            trace = symbolic_factorize(p, perm)
            assert trace.total_fill == len(fill)
            # the same steps in the EliminationGraph, by row
            assert trace.fill == [len(f) for f in fill_steps(p, perm)]
        assert time.monotonic() - start < 60.0


def test_criterion_2_exhaustive_c4_and_leaf_peeling():
    with criterion(2, "exhaustive C4 and zero-fill leaf peeling"):
        c4 = cycle_pattern(4)
        for perm in itertools.permutations(range(4)):
            fill = fill_edges(c4, perm)
            assert len(fill) == 1
            assert symbolic_factorize(c4, perm).total_fill == 1
            assert symbolic_factorize(c4, perm).fill == [len(f) for f in fill_steps(c4, perm)]

        # paths: zero fill exactly for the leaf-peeling orderings, in the
        # reference graph and, by row, in the EliminationGraph
        path = path_pattern(6)
        for perm in itertools.permutations(range(6)):
            g = ReferenceGraph(path)
            e = EliminationGraph.of(path)
            peeling = e_peeling = True
            total = e_total = 0
            for v in perm:
                peeling &= g.degree(v) <= 1
                total += len(g.eliminate(v))
                row = e.nodes.index(v)
                e_peeling &= e.degree[row] <= 1
                e, fill = e.eliminate(row)
                e_total += fill
            assert (total == 0) == peeling
            assert (e_total == 0) == e_peeling == peeling

        # trees: any leaf-peeling order fills nothing
        rng = np.random.default_rng(91)
        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(2, 25)))
            g = ReferenceGraph(tree)
            e = EliminationGraph.of(tree)
            total = e_total = 0
            while g.live:
                leaves = sorted(v for v in g.live if g.degree(v) <= 1)
                v = int(rng.choice(leaves))
                total += len(g.eliminate(v))
                row = e.nodes.index(v)
                assert e.degree[row] <= 1
                e, fill = e.eliminate(row)
                e_total += fill
            assert total == 0
            assert e_total == 0


def test_criterion_3_edge_count_conservation():
    with criterion(3, "per-step edge-count conservation"):
        rng = np.random.default_rng(92)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            p = random_pattern(rng, n, density=float(rng.uniform(0.1, 0.8)))
            g = ReferenceGraph(p)
            e = EliminationGraph.of(p)
            for v in rng.permutation(n):
                # recount independently of the maintained counter
                before = sum(len(s) for s in g.adj.values()) // 2
                deg = g.degree(int(v))
                fill = g.eliminate(int(v))
                after = sum(len(s) for s in g.adj.values()) // 2
                assert after == before - deg + len(fill)
                assert g.num_edges == after
                # the same step by row: count the distinct edges left
                row = e.nodes.index(int(v))
                e_before, e_deg = len(set(live_edges(e))), int(e.degree[row])
                e, e_fill = e.eliminate(row)
                e_after = len(set(live_edges(e)))
                assert e_after == e_before - e_deg + e_fill
                assert e.num_edges == e_after == after and e_fill == len(fill)


def test_criterion_4_asr_range():
    with criterion(4, "saturated return stays in (-1, 1]"):
        rng = np.random.default_rng(93)
        net = PolicyValueNet(NetConfig(), rng=np.random.default_rng(7))
        for _ in range(40):
            n = int(rng.integers(1, 25))
            p = random_pattern(rng, n, density=float(rng.uniform(0.1, 0.7)))
            trace, _ = rollout(net, p, rng)
            asr = adaptive_saturation_return(trace.edges_before, trace.rewards)
            assert np.all(asr > -1.0) and np.all(asr <= 1.0)
            suffix = np.cumsum(np.array(trace.rewards)[::-1])[::-1]
            # saturates at exactly 1 iff no future fill
            assert np.array_equal(asr == 1.0, suffix == 0)
            for t in range(len(trace)):
                if trace.edges_before[t] > 0 and suffix[t] == 0:
                    assert asr[t] == 1.0


def test_criterion_5_gradient_correctness():
    with criterion(5, "finite-difference check on every parameter"):
        start = time.monotonic()
        rng = np.random.default_rng(94)
        p = random_pattern(rng, 6, density=0.5)
        x = normalize_features(pattern_features(p))
        net = PolicyValueNet(NetConfig(), rng=np.random.default_rng(8))
        c_lp = rng.normal(size=6)
        c_v = float(rng.normal())

        def scalar_loss():
            lp, value, _ = evaluate(net, x)
            return float((c_lp * lp).sum() + c_v * value)

        _, _, tape = evaluate(net, x)
        grads = gradients(tape, c_lp, c_v)
        step = 1e-4
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
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                assert rel <= 1e-3, f"{name}{idx}: analytic {an}, fd {fd}"
        assert time.monotonic() - start < 60.0


def test_criterion_6_equivariance():
    with criterion(6, "permutation equivariance of both heads"):
        rng = np.random.default_rng(95)
        net = PolicyValueNet(NetConfig(), rng=np.random.default_rng(9))
        for _ in range(50):
            n = int(rng.integers(2, 16))
            p = random_pattern(rng, n, density=float(rng.uniform(0.2, 0.8)))
            perm = [int(v) for v in rng.permutation(n)]
            relabeled = SparsityPattern(n, [(perm[i], perm[j]) for i, j in p.edges])
            lp1, v1, _ = evaluate(net, normalize_features(pattern_features(p)))
            lp2, v2, _ = evaluate(net, normalize_features(pattern_features(relabeled)))
            assert max(abs(lp1[v] - lp2[perm[v]]) for v in range(n)) <= 1e-9
            assert abs(v1 - v2) <= 1e-9


def mean_fir(patterns, order_fn):
    return float(np.mean([fill_in_ratio(p, order_fn(i, p))
                          for i, p in enumerate(patterns)]))


@pytest.mark.slow
def test_criterion_7_learning_signal():
    with criterion(7, "scaled-down training beats natural/random, near mindeg"):
        train_set = generate_training_set(
            200, 60, 200, np.random.default_rng(TRAIN_DATA_SEED))
        held_out = generate_training_set(
            50, 60, 200, np.random.default_rng(HELDOUT_DATA_SEED))
        net, _ = train(train_set, TrainerConfig(epochs=3, seed=TRAIN_SEED))

        fir_gpo = mean_fir(held_out, lambda i, p: gpo_order(net, p))
        fir_nat = mean_fir(held_out, lambda i, p: natural_order(p))
        fir_rand = mean_fir(held_out,
                            lambda i, p: random_order(p, np.random.default_rng(3000 + i)))
        fir_md = mean_fir(held_out, lambda i, p: min_degree_order(p))
        print(f"\n  held-out mean FIR: gpo={fir_gpo:.4f} natural={fir_nat:.4f} "
              f"random={fir_rand:.4f} mindeg={fir_md:.4f}")
        assert fir_gpo < fir_nat
        assert fir_gpo < fir_rand
        assert fir_gpo <= 1.25 * fir_md


@pytest.mark.slow
def test_criterion_8_pipeline_determinism(tmp_path):
    with criterion(8, "byte-identical outputs from identical seeds"):
        data = tmp_path / "data"
        assert cli_main(["gen", "--count", "6", "--min", "12", "--max", "25",
                         "--seed", "11", "--out", str(data)]) == 0
        matrix = sorted(data.glob("*.mtx"))[0]
        runs = []
        for tag in ("one", "two"):
            model = tmp_path / f"{tag}.ckpt"
            assert cli_main(["train", "--data", str(data), "--epochs", "2",
                             "--seed", "21", "--out", str(model)]) == 0
            report = tmp_path / f"{tag}.csv"
            assert cli_main(["bench", "--matrices", str(data / "*.mtx"),
                             "--methods", "natural,random,mindeg,gpo",
                             "--model", str(model), "--seed", "31",
                             "--out", str(report)]) == 0
            ordering = tmp_path / f"{tag}.perm"
            assert cli_main(["order", "--matrix", str(matrix), "--method", "gpo",
                             "--model", str(model), "--out", str(ordering)]) == 0
            outputs = (model, tmp_path / f"{tag}.ckpt.log", report, ordering)
            runs.append([path.read_bytes() for path in outputs])
        # checkpoint, training log, report and ordering file, each as a cmp sees it
        assert all(runs[0])
        assert runs[0] == runs[1]


@pytest.mark.slow
def test_criterion_9_path_graph_convergence():
    with criterion(9, "policy learns a zero-fill path ordering"):
        path = path_pattern(20)
        net, _ = train([path], TrainerConfig(epochs=1, episodes_per_graph=200,
                                             seed=TRAIN_SEED))
        trace, _ = rollout(net, path, rng=None, greedy=True)
        assert trace.total_fill == 0
