"""Golden outputs of a small seeded training run.

Pins the bytes of the trained parameters, the checkpoint, the training log,
one greedy ordering and one benchmark report, so any change to the float
order of the forward pass, the gradients or the optimizer shows up here.
The parameter digest does not depend on the checkpoint's container, so a
change of checkpoint layout moves only the checkpoint pin. A change that alters floats on
purpose updates these pins and says why in CHANGES.md. The minimum-degree
orderings of a few larger graphs are pinned by digest, so a faster heap or
graph representation cannot change a single pick unnoticed.
"""

import hashlib
import io

import numpy as np
import pytest

from conftest import grid_pattern
from fillreduce import (TrainerConfig, generate_delaunay, generate_training_set,
                        gpo_order, min_degree_order, run_benchmark,
                        save_checkpoint, train, write_matrix_market)
from fillreduce.policy_net import param_shapes
from fillreduce.trainer import write_training_log

# sha256 of each tower's slice of the trained arrays, the actor's first, in
# param_shapes order: each layer's w then b, then head.w; then the critic's
# head.b, the last array, which has no tower axis
PARAMS_SHA256 = "31f119402d6de9e3107c9253da0bb20b0df29f571c7aa54e503292a32a66ba02"

CHECKPOINT_SHA256 = "4e0c213aab3abcfe238d1a9f348d5203fe9e139d322c9a4a4a24c899cd9a3257"

TRAINING_LOG = (
    "1,0,182,0.501,0.372721\n"
    "1,1,307,-1.21082,0.346537\n"
    "1,2,159,-0.932008,0.27088\n"
)

GPO_ORDER_N60 = [
    43, 58, 22, 52, 5, 21, 19, 18, 24, 27, 34, 51, 10, 45, 44, 49, 0, 1, 14, 2,
    3, 4, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 20, 23, 25, 26, 28, 29, 30, 31,
    32, 33, 35, 36, 37, 38, 39, 40, 41, 42, 46, 47, 48, 50, 53, 54, 55, 56, 57, 59,
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

# sha256 of the comma-joined min_degree_order perm; Delaunay graphs use
# default_rng(n)
MIN_DEGREE_SHA256 = {
    ("grid", 40): "6a6ffb040cfda4526334c2b59776e9d58b90fe76135d0722f1d1ccf085701879",
    ("grid", 54): "f257eba0d99415e93174c608a9f78086c8847f49f0c04a0ad283ea219daafe88",
    ("grid", 100): "ef7d54f18878de9e4a2088c69b613a4dbc5c9f82faa7e3044495d30d687709fe",
    ("delaunay", 1000): "1e7c3b523f46ac11ec2e546ffc1ee0108e5647df636289b1b0930f22c83d6b4b",
    ("delaunay", 2000): "b39789200b6e1cf4b29026e29ac1fefde073e33a4a8570eb3f49c34b062c83a8",
    ("delaunay", 4000): "cd9f06e0f6fba971d24bfd4ca04d6a69b27b93230dcbe80b569e1d75a23e350a",
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    graphs = generate_training_set(3, 30, 50, np.random.default_rng(2024))
    net, log = train(graphs, TrainerConfig(epochs=1, seed=7))
    out = tmp_path_factory.mktemp("golden")
    save_checkpoint(net, out / "m.ckpt")
    for i, g in enumerate(graphs):
        write_matrix_market(g, out / f"g{i}.mtx")
    return net, log, out


def test_golden_parameters(trained):
    net, _, _ = trained
    assert list(net.params) == list(param_shapes(net.config))
    digest = hashlib.sha256()
    for tower in range(2):
        for name, arr in net.params.items():
            if name != "head.b":
                digest.update(arr[tower].tobytes())
    digest.update(net.params["head.b"].tobytes())
    assert digest.hexdigest() == PARAMS_SHA256


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


@pytest.mark.parametrize("kind, size", sorted(MIN_DEGREE_SHA256))
def test_golden_min_degree_ordering(kind, size):
    if kind == "grid":
        p = grid_pattern(size)
    else:
        p = generate_delaunay(size, np.random.default_rng(size))
    perm = ",".join(map(str, min_degree_order(p)))
    assert hashlib.sha256(perm.encode()).hexdigest() == MIN_DEGREE_SHA256[kind, size]
