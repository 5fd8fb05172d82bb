"""Span tracing of fillreduce's layers, from outside the program.

Each public function is wrapped where the module that calls it looks it up,
for example ``trainer.forward`` rather than ``policy_net.forward``, so the
program's code is untouched and every wrapper is put back on exit. Spans are
kept in memory as (name, start, end, parent) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


def layer_targets() -> list[tuple[Any, str, str]]:
    """(owner, attribute, span name) for every layer the benchmark times."""
    from fillreduce import (datagen, evaluation, policy_net, sparsity,
                            symbolic, trainer)
    return [
        (trainer, "train", "trainer.train"),
        (trainer, "rollout", "trainer.rollout"),
        (evaluation, "rollout", "trainer.rollout"),
        (trainer, "episode_gradients", "trainer.episode_gradients"),
        (trainer.AdamState, "step", "trainer.adam"),
        (trainer, "forward", "policy_net.forward"),
        (trainer, "backward", "policy_net.backward"),
        (policy_net, "build_propagation", "policy_net.build_propagation"),
        (trainer, "compute_features", "features.compute_features"),
        (trainer, "normalize_features", "features.normalize_features"),
        (symbolic.EliminationGraph, "eliminate", "symbolic.eliminate"),
        (evaluation, "symbolic_factorize", "symbolic.symbolic_factorize"),
        (evaluation, "min_degree_order", "orderings.min_degree_order"),
        (evaluation, "gpo_order", "evaluation.gpo_order"),
        (evaluation, "run_benchmark", "evaluation.run_benchmark"),
        (sparsity, "load_matrix_market", "sparsity.load_matrix_market"),
        (datagen, "load_matrix_market", "sparsity.load_matrix_market"),
        (evaluation, "load_matrix_market", "sparsity.load_matrix_market"),
        (sparsity, "write_matrix_market", "sparsity.write_matrix_market"),
        (datagen, "write_matrix_market", "sparsity.write_matrix_market"),
        (datagen, "generate_delaunay", "datagen.generate_delaunay"),
        (policy_net, "save_checkpoint", "policy_net.checkpoint"),
        (trainer, "save_checkpoint", "policy_net.checkpoint"),
        (policy_net, "load_checkpoint", "policy_net.checkpoint"),
        (evaluation, "load_checkpoint", "policy_net.checkpoint"),
    ]


# tracemalloc windows: metric -> (span that opens it, span that closes it)
MEMORY_WINDOWS = {
    "evaluation.gpo_order.peak_mb": ("evaluation.gpo_order", "evaluation.gpo_order"),
    "trainer.episode_peak_mb": ("trainer.rollout", "trainer.episode_gradients"),
}


@contextmanager
def patched(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` and restore it on exit."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def capture_calls(owner: Any, attr: str, calls: list,
                  keep: Callable[[tuple, Any], Any]) -> Iterator[None]:
    """Append ``keep(args, result)`` of every call to ``owner.attr``."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append(keep(args, result))
            return result
        return wrapper
    with patched(owner, attr, make):
        yield


class Tracer:
    """Records one span per call into each target; with ``memory`` it also
    tracks the tracemalloc peak of each window in MEMORY_WINDOWS."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.fill_edges = 0
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: dict[str, list[int]] = {}   # window -> [base, peak]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            if self.memory:
                self._enter(name)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if self.memory:
                self._exit(name)
            if name == "symbolic.eliminate":
                self.fill_edges += len(result)
            return result
        return wrapper

    def opens_memory_window(self) -> bool:
        """Whether any recorded span opens a window of MEMORY_WINDOWS."""
        openers = {opens for opens, _ in MEMORY_WINDOWS.values()}
        return any(span[0] in openers for span in self.spans)

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for window in self._open.values():
            window[1] = max(window[1], peak)

    def _enter(self, name: str) -> None:
        for metric, (opens, _) in MEMORY_WINDOWS.items():
            if name == opens:
                self._fold_peak()
                tracemalloc.reset_peak()
                self._open[metric] = [tracemalloc.get_traced_memory()[0], 0]

    def _exit(self, name: str) -> None:
        for metric, (_, closes) in MEMORY_WINDOWS.items():
            if name == closes and metric in self._open:
                self._fold_peak()
                base, peak = self._open.pop(metric)
                self.peaks[metric] = max(self.peaks.get(metric, 0), peak - base)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer target for the duration of the block."""
        with ExitStack() as stack:
            if self.memory:
                tracemalloc.start()
                stack.callback(tracemalloc.stop)
            for owner, attr, name in layer_targets():
                stack.enter_context(
                    patched(owner, attr, functools.partial(self._wrap, name=name)))
            yield self

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call counts per span name. Self time is a span's
        duration minus the time its child spans cover; eliminate spans are
        also split by the name of their parent span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[index]
            seconds[name] += own
            calls[name] += 1
            if name == "symbolic.eliminate" and parent >= 0:
                under = self.spans[parent][0].rsplit(".", 1)[-1]
                seconds[f"symbolic.eliminate.in_{under}"] += own
        return dict(seconds), dict(calls)

    def write(self, path: Path) -> None:
        """One JSON line per span: name, start and end in seconds, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
