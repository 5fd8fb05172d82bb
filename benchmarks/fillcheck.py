"""Independent checks of fillreduce's outputs.

Nothing here imports fillreduce: fill is counted with numpy from the edges
the benchmark generated itself, so a fault in ``symbolic.py`` or in the
Matrix Market round trip cannot hide behind the same fault in the check.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


class CheckError(AssertionError):
    """An output of the program disagrees with the independent check."""


def _edge_array(edges: Iterable[tuple[int, int]]) -> np.ndarray:
    return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def check_permutation(perm: Sequence[int], n: int) -> None:
    got = np.sort(np.asarray(perm, dtype=np.int64))
    if got.shape != (n,) or not np.array_equal(got, np.arange(n)):
        raise CheckError(f"ordering of length {len(perm)} is not a permutation of 0..{n - 1}")


def fill_count(n: int, edges: Iterable[tuple[int, int]], perm: Sequence[int]) -> int:
    """Fill edges created by eliminating ``perm``, from column structures.

    Columns are taken in elimination order. The strict lower structure of
    column j of the Cholesky factor is column j of the permuted matrix
    merged with the structures of j's children in the elimination tree,
    and j's parent is the first row of that structure. The factor's
    off-diagonal count minus |E| is the fill.
    """
    check_permutation(perm, n)
    e = _edge_array(edges)
    pos = np.empty(n, dtype=np.int64)
    pos[np.asarray(perm, dtype=np.int64)] = np.arange(n)
    a, b = pos[e[:, 0]], pos[e[:, 1]]
    struct = np.zeros((n, n), dtype=bool)   # row j holds column j's structure
    struct[np.minimum(a, b), np.maximum(a, b)] = True
    num_edges = int(struct.sum())
    factor = 0
    for j in range(n):
        rows = np.flatnonzero(struct[j])
        factor += rows.size
        if rows.size > 1:
            struct[rows[0], rows[1:]] = True
    return factor - num_edges


def check_min_degree(n: int, edges: Iterable[tuple[int, int]], perm: Sequence[int]) -> None:
    """Replay ``perm`` on a dense boolean graph; every step must take a live
    node of minimum current degree, the lowest index on ties."""
    check_permutation(perm, n)
    e = _edge_array(edges)
    adj = np.zeros((n, n), dtype=bool)
    adj[e[:, 0], e[:, 1]] = True
    adj[e[:, 1], e[:, 0]] = True
    deg = adj.sum(axis=1)
    dead = n + 1   # above any degree
    for step, v in enumerate(perm):
        best = int(np.argmin(deg))   # argmin returns the lowest index on ties
        if best != v:
            raise CheckError(
                f"min-degree step {step} took node {v} of degree {deg[v]}; "
                f"node {best} has degree {deg[best]}")
        nbrs = np.flatnonzero(adj[v])
        adj[v, :] = False
        adj[:, v] = False
        deg[v] = dead
        adj[np.ix_(nbrs, nbrs)] = True
        adj[nbrs, nbrs] = False
        deg[nbrs] = adj[nbrs].sum(axis=1)


def check_delaunay(n: int, edges: Iterable[tuple[int, int]]) -> None:
    """A planar triangulation is connected and has at most 3n - 6 edges."""
    e = _edge_array(edges)
    if len(e) > 3 * n - 6:
        raise CheckError(f"{len(e)} edges exceed the planar bound 3n - 6 = {3 * n - 6}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in e.tolist():
        adj[i].append(j)
        adj[j].append(i)
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not seen.all():
        raise CheckError(f"graph is disconnected: {int(seen.sum())} of {n} nodes reachable")


def nnz_sym(n: int, num_edges: int) -> int:
    return 2 * num_edges + n


def check_row(row, n: int, edges: frozenset, perm: Sequence[int]) -> float:
    """A report row's n, nnz, fill and FIR against the independent count;
    returns the FIR."""
    fill = fill_count(n, edges, perm)
    nnz = nnz_sym(n, len(edges))
    fir = 2.0 * fill / nnz
    got = (row.n, row.nnz, row.fill)
    if got != (n, nnz, fill) or not math.isclose(row.fir, fir, rel_tol=1e-12):
        raise CheckError(
            f"{row.matrix}/{row.method}: report has n, nnz, fill, fir = "
            f"{got + (row.fir,)}, independent count gives {(n, nnz, fill, fir)}")
    return fir


def check_episode(n: int, edges: frozenset, log_entry, episode_fill: int) -> None:
    """One training-log line: finite losses, fill within the possible range,
    and equal to the fill its episode produced."""
    if not (math.isfinite(log_entry.l_actor) and math.isfinite(log_entry.l_critic)):
        raise CheckError(f"non-finite loss in training log entry {log_entry.format()!r}")
    most = n * (n - 1) // 2 - len(edges)
    if not 0 <= log_entry.total_fill <= most:
        raise CheckError(f"total fill {log_entry.total_fill} outside [0, {most}]")
    if log_entry.total_fill != episode_fill:
        raise CheckError(
            f"training log says fill {log_entry.total_fill}, "
            f"its episode's ordering gives {episode_fill}")


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise CheckError(f"geometric mean needs positive values, got {list(values)}")
    return math.exp(sum(math.log(v) for v in values) / len(values))
