"""Fill-in-ratio evaluation and the benchmark report.

The measurement model is symbolic: orderings are scored by the Cholesky
pattern of the symmetrized matrix, so the factor nonzero count is
nnz(L + L^T off-diagonal) + n = nnz_sym(A) + 2 * fill, and
FIR = 2 * fill / nnz_sym(A). FIR is 0.0 when nnz_sym(A) = 0, which happens
only for n = 0: there is no fill and there are no entries. ``bench`` and
``order`` build each cell, one matrix by one method, by ``evaluate_cell``.
"""

from __future__ import annotations

import csv
import io
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .orderings import min_degree_order, natural_order, random_order
from .policy_net import PolicyValueNet, load_checkpoint
from .sparsity import Ordering, SparsityPattern, load_matrix_market, nnz_sym, open_text
# benchmarks/spans.py times symbolic_factorize by its name in this module
from .symbolic import count_fill, symbolic_factorize  # noqa: F401
from .trainer import rollout

METHODS = ("natural", "random", "mindeg", "gpo")

CSV_HEADER = ["matrix", "method", "n", "nnz", "fill", "fir"]


def _fir(fill: int, nnz: int) -> float:
    return 2.0 * fill / nnz if nnz else 0.0


def fill_in_ratio(p: SparsityPattern, ordering: Ordering | Sequence[int]) -> float:
    """Extra factor nonzeros divided by the original nonzeros; 0.0 for n = 0."""
    return _fir(count_fill(p, ordering), nnz_sym(p))


def gpo_order(net: PolicyValueNet, p: SparsityPattern) -> Ordering:
    """Greedy inference: argmax of the policy at every step, lowest index on
    ties, until the live graph is complete; then its nodes in ascending order."""
    _, ordering = rollout(net, p)
    return ordering


def compute_ordering(method: str, p: SparsityPattern,
                     model: PolicyValueNet | None = None,
                     rng: np.random.Generator | None = None) -> Ordering:
    if method == "natural":
        return natural_order(p)
    if method == "random":
        if rng is None:
            rng = np.random.default_rng(0)
        return random_order(p, rng)
    if method == "mindeg":
        return min_degree_order(p)
    if method == "gpo":
        if model is None:
            raise ValueError("method 'gpo' needs a trained model")
        return gpo_order(model, p)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


@dataclass
class EvalRow:
    matrix: str
    method: str
    n: int = 0
    nnz: int = 0
    fill: int = 0
    fir: float = 0.0
    error: str | None = None


@dataclass
class EvalReport:
    rows: list[EvalRow]

    def method_means(self) -> dict[str, float]:
        """Mean FIR per method over the rows that evaluated successfully."""
        sums: dict[str, list[float]] = {}
        for row in self.rows:
            if row.error is None:
                sums.setdefault(row.method, []).append(row.fir)
        return {m: sum(v) / len(v) for m, v in sums.items()}

    @property
    def num_errors(self) -> int:
        return sum(1 for row in self.rows if row.error is not None)

    def to_csv(self) -> str:
        """Delimited report: one row per (matrix, method), then a blank line
        and a per-method mean-FIR block. Error rows keep the matrix/method
        cells and carry the message in the fir column."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.rows:
            if row.error is not None:
                writer.writerow([row.matrix, row.method, "", "", "",
                                 f"error: {row.error}"])
            else:
                writer.writerow([row.matrix, row.method, row.n, row.nnz,
                                 row.fill, f"{row.fir:.12g}"])
        writer.writerow([])
        writer.writerow(["method", "mean_fir"])
        for method, mean in sorted(self.method_means().items()):
            writer.writerow([method, f"{mean:.12g}"])
        return buf.getvalue()

    def write_csv(self, target: str | Path | IO[str]) -> None:
        with open_text(target, "w") as fh:
            fh.write(self.to_csv())


def _entry_rng(seed: int, matrix_name: str) -> np.random.Generator:
    # keyed per matrix so a row does not depend on which other files ran
    return np.random.default_rng([seed, zlib.crc32(matrix_name.encode())])


def evaluate_cell(name: str, method: str, pattern: SparsityPattern,
                  model: PolicyValueNet | None = None, seed: int = 0
                  ) -> tuple[Ordering, EvalRow]:
    """One matrix ordered by one method: the ordering and its report row.
    Random draws from a stream keyed by ``seed`` and ``name``; the fill is
    the one the ordering carries, or ``count_fill``'s when it carries none."""
    ordering = compute_ordering(method, pattern, model, _entry_rng(seed, name))
    fill = count_fill(pattern, ordering) if ordering.fill is None else ordering.fill
    nnz = nnz_sym(pattern)
    return ordering, EvalRow(name, method, pattern.n, nnz, fill, _fir(fill, nnz))


def run_benchmark(matrix_paths: Sequence[str | Path], methods: Sequence[str],
                  model_path: str | Path | None = None, seed: int = 0) -> EvalReport:
    """Evaluate every matrix x method cell; failures become error rows.

    ``methods`` names at least one method of ``METHODS``, each at most once,
    and ``seed`` is a non-negative integer.

    Matrices are identified by file name and processed in sorted order, so a
    repeat run over the same inputs reproduces the report byte for byte.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    if not methods or len(set(methods)) != len(methods):
        raise ValueError(f"methods must be a non-empty list without repeats, "
                         f"got {list(methods)}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    model: PolicyValueNet | None = None
    model_error: str | None = None
    if "gpo" in methods:
        if model_path is None:
            model_error = "no model file given"
        else:
            try:
                model = load_checkpoint(model_path)
            except Exception as exc:
                model_error = str(exc)

    paths = sorted((Path(p) for p in matrix_paths), key=lambda p: (p.name, str(p)))
    rows: list[EvalRow] = []
    for path in paths:
        name = path.name
        try:
            pattern = load_matrix_market(path)
        except Exception as exc:
            for method in methods:
                rows.append(EvalRow(name, method, error=str(exc)))
            continue
        for method in methods:
            if method == "gpo" and model is None:
                rows.append(EvalRow(name, method, error=model_error or "no model"))
                continue
            try:
                _, row = evaluate_cell(name, method, pattern, model, seed)
            except Exception as exc:
                row = EvalRow(name, method, error=str(exc))
            rows.append(row)
    return EvalReport(rows)
