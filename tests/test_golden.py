"""Golden outputs of a small seeded training run.

Pins the bytes of the checkpoint, the training log, one greedy ordering and
one benchmark report, so any change to the float order of the forward pass,
the gradients or the optimizer shows up here. A change that alters floats on
purpose updates these pins and says why in CHANGES.md.
"""

import hashlib
import io

import numpy as np
import pytest

from fillreduce import (TrainerConfig, generate_delaunay, generate_training_set,
                        gpo_order, run_benchmark, save_checkpoint, train,
                        write_matrix_market)
from fillreduce.trainer import write_training_log

CHECKPOINT_SHA256 = "f18b05b06012a3af65ac622c6dca736c39ec1b7032a732f9fd64618e7a8b32d2"

TRAINING_LOG = (
    "1,0,182,0.501,0.372721\n"
    "1,1,307,-1.21082,0.346537\n"
    "1,2,159,-0.932008,0.27088\n"
)

GPO_ORDER_N60 = [
    43, 58, 22, 52, 5, 21, 19, 18, 24, 27, 34, 51, 10, 45, 44, 49, 0, 1, 14, 2,
    3, 4, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 20, 23, 25, 26, 28, 29, 30, 31,
    32, 33, 35, 36, 37, 38, 39, 40, 41, 42, 46, 47, 48, 56, 50, 53, 54, 55, 57, 59,
]

REPORT_CSV = (
    "matrix,method,n,nnz,fill,fir\n"
    "g0.mtx,natural,35,223,178,1.59641255605\n"
    "g0.mtx,mindeg,35,223,80,0.717488789238\n"
    "g0.mtx,gpo,35,223,406,3.64125560538\n"
    "g1.mtx,natural,44,284,384,2.70422535211\n"
    "g1.mtx,mindeg,44,284,99,0.697183098592\n"
    "g1.mtx,gpo,44,284,673,4.73943661972\n"
    "g2.mtx,natural,31,187,151,1.61497326203\n"
    "g2.mtx,mindeg,31,187,45,0.48128342246\n"
    "g2.mtx,gpo,31,187,319,3.41176470588\n"
    "\n"
    "method,mean_fir\n"
    "gpo,3.93081897699\n"
    "mindeg,0.63198510343\n"
    "natural,1.97187039007\n"
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    graphs = generate_training_set(3, 30, 50, np.random.default_rng(2024))
    net, log = train(graphs, TrainerConfig(epochs=1, seed=7))
    out = tmp_path_factory.mktemp("golden")
    save_checkpoint(net, out / "m.ckpt")
    for i, g in enumerate(graphs):
        write_matrix_market(g, out / f"g{i}.mtx")
    return net, log, out


def test_golden_checkpoint_bytes(trained):
    _, _, out = trained
    digest = hashlib.sha256((out / "m.ckpt").read_bytes()).hexdigest()
    assert digest == CHECKPOINT_SHA256


def test_golden_training_log(trained):
    _, log, _ = trained
    buf = io.StringIO()
    write_training_log(log, buf)
    assert buf.getvalue() == TRAINING_LOG


def test_golden_greedy_ordering(trained):
    net, _, _ = trained
    held_out = generate_delaunay(60, np.random.default_rng(2025))
    assert list(gpo_order(net, held_out)) == GPO_ORDER_N60


def test_golden_benchmark_report(trained):
    _, _, out = trained
    report = run_benchmark(sorted(out.glob("*.mtx")), ["natural", "mindeg", "gpo"],
                           model_path=out / "m.ckpt")
    assert report.to_csv() == REPORT_CSV
