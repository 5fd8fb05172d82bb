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
import os
import sys
from pathlib import Path

import numpy as np

from .datagen import (MANIFEST_NAME, generate_training_set, load_training_set,
                      training_set_files, write_training_set)
from .evaluation import METHODS, evaluate_cell, run_benchmark
from .policy_net import BACKBONES, load_checkpoint, save_checkpoint
from .sparsity import load_matrix_market, write_ordering
from .trainer import REWARD_VARIANTS, TrainerConfig, train, write_training_log


def _checked_seed(seed: int) -> int:
    """A non-negative ``--seed``; numpy's own error for a negative one does
    not name the option."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _check_out_dirs(*inputs: tuple[str, str | None], **outputs: str) -> None:
    """Refuse, before any work is done, an output path in a missing directory
    or one that names the same file as an input or as another output. Each
    input pairs an option with its path, or with None if it is not given."""
    for option, path in outputs.items():
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"--{option} {path}: directory {os.path.dirname(path)} does not exist")
    named = [(f"--{option}", path) for option, path in outputs.items()]
    named += [(option, path) for option, path in inputs if path is not None]
    for i, (option, path) in enumerate(named[:len(outputs)]):
        for other, other_path in named[i + 1:]:
            if os.path.realpath(path) == os.path.realpath(other_path) or (
                    os.path.exists(path) and os.path.exists(other_path)
                    and os.path.samefile(path, other_path)):
                raise ValueError(f"{option} {path} and {other} {other_path} name the same file")


def cmd_gen(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(_checked_seed(args.seed))
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
    log_path = args.log if args.log else args.out + ".log"
    _check_out_dirs(out=args.out, log=log_path)
    # the set's files, listed without reading them: an output must not overwrite one
    _check_out_dirs(*[("--data", f) for f in training_set_files(args.data)],
                    ("--data", Path(args.data) / MANIFEST_NAME), out=args.out, log=log_path)
    # nor, in a set without a manifest, add a file that the next run globs as a graph
    if not (Path(args.data) / MANIFEST_NAME).exists():
        for option, path in (("--out", args.out), ("--log", log_path)):
            real = Path(os.path.realpath(path))
            if real.name.endswith(".mtx") and real.parent == Path(os.path.realpath(args.data)):
                raise ValueError(f"{option} {path}: --data {args.data} has no manifest, "
                                 f"so a .mtx file there is read as a graph of the set")
    graphs = load_training_set(args.data)
    net, log = train(graphs, cfg)
    save_checkpoint(net, args.out)
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
    seed = _checked_seed(args.seed)
    if args.method == "gpo" and not args.model:
        raise ValueError("--method gpo requires --model")
    _check_out_dirs(("--matrix", args.matrix),
                    ("--model", args.model if args.method == "gpo" else None), out=args.out)
    pattern = load_matrix_market(args.matrix)
    model = load_checkpoint(args.model) if args.method == "gpo" else None
    # bench's cell for this file, so both write the same ordering and FIR
    ordering, row = evaluate_cell(Path(args.matrix).name, args.method, pattern, model, seed)
    write_ordering(ordering, args.out)
    print(f"{args.matrix}: n={pattern.n}, method={args.method}, "
          f"fir={row.fir:.6g} -> {args.out}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    paths = sorted(glob.glob(args.matrices))
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    _check_out_dirs(*[("--matrices", path) for path in paths],
                    ("--model", args.model if "gpo" in methods else None), out=args.out)
    if not paths:
        raise ValueError(f"no files match {args.matrices!r}")
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
    except MemoryError as exc:
        # numpy's message names the allocation it could not make
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
