"""Benchmark of fillreduce: one workload per process, result as the last line.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's set-up is repeated and timed, then its
operation is repeated for ``--seconds`` seconds and the end-to-end metrics
are printed. With ``--trace 1`` one set-up and one repetition run under the
span tracer and the per-layer metrics are printed. Either way the outputs of
one repetition are checked against an independent fill count, and every
repetition must reproduce them exactly. Spans and results are written under
``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
SETUP_REPEATS = 3

# self seconds over one traced set-up
SETUP_LAYERS = ("sparsity.write_matrix_market", "datagen.generate_delaunay",
                "policy_net.checkpoint")
# self seconds over one traced repetition
REP_LAYERS = (
    "policy_net.build_propagation", "policy_net.forward", "policy_net.backward",
    "trainer.train", "trainer.rollout", "trainer.episode_gradients", "trainer.adam",
    "features.compute_features", "features.normalize_features",
    "symbolic.eliminate", "symbolic.eliminate.in_symbolic_factorize",
    "symbolic.eliminate.in_min_degree_order", "symbolic.eliminate.in_rollout",
    "symbolic.symbolic_factorize", "orderings.min_degree_order",
    "evaluation.run_benchmark", "sparsity.load_matrix_market",
)


def load_program() -> None:
    """Import fillreduce from this checkout's ``src`` and nowhere else."""
    package = SRC / "fillreduce"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"fillreduce sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fillreduce
    if Path(fillreduce.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"imported fillreduce from {fillreduce.__file__}, not {package}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(wl, seed: int, seconds: int, work: Path) -> tuple[dict, dict, int, int]:
    """End-to-end metrics: repeated set-ups, an untimed repetition, then
    repetitions for ``seconds``. Each distinct output is checked once."""
    import reference
    from fillcheck import CheckError, geomean
    from workloads import same_inputs

    setups, state = [], None   # (wall seconds, kernel seconds within)
    for i in range(SETUP_REPEATS):
        st, *timing = reference.sampled(lambda: wl.setup(seed, work / f"setup{i}"))
        setups.append(timing)
        if state is None:
            state = st
        elif not same_inputs(state.inputs, st.inputs):
            raise CheckError("one seed gave two different sets of inputs")

    checked: dict = {}   # fingerprint of a repetition's outputs -> their FIRs
    firs: list[float] = []
    attempted = failed = 0

    def repetition(index: int) -> list[float]:
        nonlocal attempted, failed
        calls: list = []
        with wl.capture(calls):
            out, *timing = reference.sampled(lambda: wl.run(state, index))
        attempted += wl.operations(state)
        failed += wl.failures(out)
        key = wl.fingerprint(out)
        if key not in checked:
            checked[key] = wl.check(state, out, calls)
        firs.extend(checked[key])
        return timing

    repetition(0)   # warm-up, untimed
    reps = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        reps.append(repetition(len(reps) + 1))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def scaled(blocks: list) -> float:
        """Median over blocks of their time in units of the kernel's time."""
        return reference.NOMINAL_S * statistics.median(
            reference.in_kernel_units(wall, samples) for wall, samples in blocks)

    metrics = {
        "nodes_per_s": metric(wl.nodes(state) / scaled(reps), "1/s"),
        "setup_s": metric(scaled(setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "fir_geomean": metric(geomean(firs), "ratio"),
    }
    raw = {"setup_wall_s": [w for w, _ in setups], "setup_kernel_s": [k for _, k in setups],
           "rep_wall_s": [w for w, _ in reps], "rep_kernel_s": [k for _, k in reps],
           "nodes_per_rep": wl.nodes(state), "distinct_outputs": len(checked)}
    return metrics, raw, attempted, failed


def trace(wl, seed: int, work: Path) -> tuple[dict, dict, int, int]:
    """Per-layer metrics: a traced set-up, then one untraced, one traced and
    one untraced repetition, and one under tracemalloc if the workload has a
    memory window; all of them must agree."""
    import reference
    from spans import Tracer
    from fillcheck import CheckError

    setup_tracer = Tracer()
    with setup_tracer.installed():
        state = wl.setup(seed, work / "setup0")

    def run(tracer: Tracer | None):
        calls: list = []
        start = time.perf_counter()
        if tracer is None:
            with wl.capture(calls):
                out = wl.run(state, 0)
        else:
            with tracer.installed(), wl.capture(calls):
                out = wl.run(state, 0)
        return out, calls, time.perf_counter() - start

    def kernel_times() -> list[float]:
        return [reference.timed() for _ in range(5)]

    checked, calls, _ = run(None)
    refs = kernel_times()
    rep_tracer = Tracer()
    traced, traced_calls, traced_wall = run(rep_tracer)
    refs += kernel_times()
    plain, plain_calls, plain_wall = run(None)
    refs += kernel_times()
    outs, all_calls = [checked, traced, plain], [calls, traced_calls, plain_calls]
    mem_tracer, memory_wall = Tracer(memory=True), 0.0
    if rep_tracer.opens_memory_window():
        in_memory, memory_calls, memory_wall = run(mem_tracer)
        outs.append(in_memory)
        all_calls.append(memory_calls)

    orderings = [wl.orderings(c) for c in all_calls]
    if (len({wl.fingerprint(o) for o in outs}) != 1
            or any(o != orderings[0] for o in orderings)):
        raise CheckError("traced and untraced repetitions disagree")
    wl.check(state, checked, calls)

    scale = reference.NOMINAL_S / statistics.median(refs)
    setup_seconds, _ = setup_tracer.self_times()
    rep_seconds, rep_calls = rep_tracer.self_times()
    metrics = {f"{name}.s": metric(setup_seconds.get(name, 0.0) * scale, "s")
               for name in SETUP_LAYERS}
    metrics.update({f"{name}.s": metric(rep_seconds.get(name, 0.0) * scale, "s")
                    for name in REP_LAYERS})
    metrics["symbolic.eliminate.calls"] = metric(rep_calls.get("symbolic.eliminate", 0), "count")
    metrics["symbolic.fill_edges"] = metric(rep_tracer.fill_edges, "count")
    for name in ("evaluation.gpo_order.peak_mb", "trainer.episode_peak_mb"):
        metrics[name] = metric(mem_tracer.peaks.get(name, 0) / 2**20, "MB")
    metrics["trace.overhead_s"] = metric((traced_wall - plain_wall) * scale, "s")

    setup_tracer.write(work.parent / "spans_setup.jsonl")
    rep_tracer.write(work.parent / "spans_rep.jsonl")
    raw = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
           "tracemalloc_wall_s": memory_wall, "ref_s": refs}
    return (metrics, raw, len(outs) * wl.operations(state),
            sum(wl.failures(o) for o in outs))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # fixed before numpy loads OpenBLAS, which reads them once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    load_program()
    import numpy as np
    from fillcheck import CheckError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = run_dir / "inputs"
    try:
        if args.trace:
            metrics, raw, attempted, failed = trace(wl, args.seed, work)
        else:
            metrics, raw, attempted, failed = measure(wl, args.seed, args.seconds, work)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    raw.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               blas_threads=BLAS_THREADS, numpy=np.__version__)
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "result.json").write_text(json.dumps({"raw": raw, "result": result}) + "\n")
    print("raw " + json.dumps(raw))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
