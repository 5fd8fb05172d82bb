"""Command-line interface: data generation, training, ordering, benchmarking.

Subcommands:
  gen    --count K --min 60 --max 200 --seed S --out DIR
  train  --data DIR --epochs E --seed S --out model.ckpt
         [--backbone mixhop|singlehop] [--reward asr|raw]
  order  --matrix F.mtx --method natural|random|mindeg|gpo [--model M] --out perm.txt
  bench  --matrices GLOB --methods LIST [--model M] --seed S --out report.csv
"""

from __future__ import annotations

import argparse
import glob
import sys

import numpy as np

from .datagen import generate_training_set, load_training_set, write_training_set
from .evaluation import METHODS, run_benchmark, compute_ordering, fill_in_ratio
from .policy_net import BACKBONES, load_checkpoint, save_checkpoint
from .sparsity import load_matrix_market, write_ordering
from .trainer import REWARD_VARIANTS, TrainerConfig, train, write_training_log


def _seeded_rng(seed: int) -> np.random.Generator:
    """A generator for a non-negative ``--seed``; numpy's own error for a
    negative one does not name the option."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def cmd_gen(args: argparse.Namespace) -> int:
    rng = _seeded_rng(args.seed)
    patterns = generate_training_set(args.count, args.min, args.max, rng)
    manifest = write_training_set(patterns, args.out)
    sizes = [p.n for p in patterns]
    print(f"wrote {len(patterns)} Delaunay graphs (n in [{min(sizes)}, {max(sizes)}]) "
          f"to {args.out} (manifest: {manifest})")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = TrainerConfig(epochs=args.epochs, episodes_per_graph=args.episodes_per_graph,
                        seed=args.seed, backbone=args.backbone, reward=args.reward,
                        checkpoint_every=args.checkpoint_every,
                        checkpoint_path=args.out)
    graphs = load_training_set(args.data)
    net, log = train(graphs, cfg)
    save_checkpoint(net, args.out)
    log_path = args.log if args.log else args.out + ".log"
    write_training_log(log, log_path)
    per_epoch: dict[int, list[int]] = {}
    for entry in log:
        per_epoch.setdefault(entry.epoch, []).append(entry.total_fill)
    for epoch in sorted(per_epoch):
        fills = per_epoch[epoch]
        print(f"epoch {epoch}: {len(fills)} episodes, mean fill {np.mean(fills):.2f}")
    print(f"saved model to {args.out}, training log to {log_path}")
    return 0


def cmd_order(args: argparse.Namespace) -> int:
    rng = _seeded_rng(args.seed)
    pattern = load_matrix_market(args.matrix)
    model = None
    if args.method == "gpo":
        if not args.model:
            print("error: --method gpo requires --model", file=sys.stderr)
            return 2
        model = load_checkpoint(args.model)
    ordering = compute_ordering(args.method, pattern, model, rng)
    write_ordering(ordering, args.out)
    print(f"{args.matrix}: n={pattern.n}, method={args.method}, "
          f"fir={fill_in_ratio(pattern, ordering):.6g} -> {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    paths = sorted(glob.glob(args.matrices))
    if not paths:
        print(f"error: no files match {args.matrices!r}", file=sys.stderr)
        return 2
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    report = run_benchmark(paths, methods, model_path=args.model, seed=args.seed)
    report.write_csv(args.out)
    for method, mean in sorted(report.method_means().items()):
        print(f"mean FIR {method}: {mean:.6g}")
    if report.num_errors:
        print(f"{report.num_errors} of {len(report.rows)} cells failed; "
              f"see error rows in {args.out}", file=sys.stderr)
        return 1 if report.num_errors < len(report.rows) else 2
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fillreduce",
        description="Fill-reducing sparse matrix reordering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate Delaunay training graphs")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--min", type=int, default=60, help="smallest node count")
    gen.add_argument("--max", type=int, default=200, help="largest node count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train the elimination policy")
    tr.add_argument("--data", required=True, help="directory from 'gen'")
    tr.add_argument("--epochs", type=int, default=3)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True, help="model checkpoint path")
    tr.add_argument("--backbone", choices=BACKBONES, default="mixhop")
    tr.add_argument("--reward", choices=REWARD_VARIANTS, default="asr")
    tr.add_argument("--episodes-per-graph", type=int, default=1)
    tr.add_argument("--checkpoint-every", type=int, default=0,
                    help="save a rolling checkpoint every N episodes (0 = off)")
    tr.add_argument("--log", default=None,
                    help="training log path (default: <out>.log)")
    tr.set_defaults(func=cmd_train)

    order = sub.add_parser("order", help="write an elimination ordering")
    order.add_argument("--matrix", required=True, help="Matrix Market file")
    order.add_argument("--method", choices=METHODS, required=True)
    order.add_argument("--model", default=None, help="checkpoint for method gpo")
    order.add_argument("--seed", type=int, default=0, help="seed for method random")
    order.add_argument("--out", required=True, help="ordering output path")
    order.set_defaults(func=cmd_order)

    bench = sub.add_parser("bench", help="fill-in ratio comparison table")
    bench.add_argument("--matrices", required=True, help="glob of .mtx files")
    bench.add_argument("--methods", required=True,
                       help="comma-separated list from: " + ", ".join(METHODS))
    bench.add_argument("--model", default=None, help="checkpoint for method gpo")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True, help="report CSV path")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad input files, checkpoints and options: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
