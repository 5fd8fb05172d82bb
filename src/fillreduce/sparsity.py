"""Sparse matrix patterns as undirected graphs, plus Matrix Market / ordering file I/O.

Only the zero/nonzero structure matters here: numeric values are parsed for
validation and then dropped, and unsymmetric inputs are symmetrized so the
pattern always describes an undirected graph. A pattern keeps its edges in
one sorted int32 array, so loading and scoring make no Python tuple per edge.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np


class PatternError(ValueError):
    """Malformed input file or invalid pattern data."""


class OrderingError(ValueError):
    """Sequence is not a permutation of the expected node set."""


def _edge_ends(n: int, edges) -> np.ndarray:
    """The pairs of ``edges`` as an int64 ``(m, 2)`` array; the first pair with
    a non-integer end, an end out of range or equal ends raises PatternError."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
        ends = edges.astype(np.int64)
        if not (ends.size and (ends.min() < 0 or ends.max() >= n
                               or (ends[:, 0] == ends[:, 1]).any())):
            return ends
    flat = []
    for i, j in edges:
        try:
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise PatternError(f"edge ({i!r}, {j!r}) has a non-integer end") from None
        if not (0 <= i < n and 0 <= j < n):
            raise PatternError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise PatternError(f"self-loop edge ({i}, {j}) is not allowed")
        flat += i, j
    return np.array(flat, dtype=np.int64).reshape(-1, 2)


class SparsityPattern:
    """Symmetric off-diagonal nonzero structure of an n x n matrix, n <= 2^31.

    ``edge_array`` holds each undirected edge once, as a column (i, j) with
    i < j of a read-only int32 ``(2, m)`` array, columns sorted; self-loops
    are rejected. The package reads only this array. ``edges`` builds the
    same edges as a frozenset of tuples on each access and keeps nothing, so
    a pattern holds one form of its edges. ``diagonal`` records which nodes
    carried an explicitly stored diagonal entry; it is informational only (a
    structural diagonal is assumed present for every node regardless).

    Instances are immutable by convention and safe to share across workers.
    """

    __slots__ = ("n", "edge_array", "diagonal")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 diagonal: Iterable[int] = ()):
        if not 0 <= n <= 2 ** 31:
            raise PatternError(f"node count must be in [0, 2**31], got {n}")
        ends = _edge_ends(n, edges)
        # sort by one int64 key per edge, below n^2 <= 2^62
        key = np.sort(np.minimum(ends[:, 0], ends[:, 1]) * n + np.maximum(ends[:, 0], ends[:, 1]))
        key = key[np.flatnonzero(np.diff(key, prepend=-1))]
        diag = set()
        for d in diagonal:
            try:
                d = operator.index(d)
            except TypeError:
                raise PatternError(f"diagonal index {d!r} is not an integer") from None
            if not 0 <= d < n:
                raise PatternError(f"diagonal index {d} out of range for n={n}")
            diag.add(d)
        self.n = n
        self.edge_array = np.stack(np.divmod(key, max(n, 1))).astype(np.int32)
        self.edge_array.flags.writeable = False
        self.diagonal = frozenset(diag)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (i, j) tuples, i < j, built on each access."""
        return frozenset(zip(*self.edge_array.tolist()))

    @property
    def num_edges(self) -> int:
        return self.edge_array.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsityPattern):
            return NotImplemented
        return ((self.n, self.diagonal) == (other.n, other.diagonal)
                and np.array_equal(self.edge_array, other.edge_array))

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes(), self.diagonal))

    def __repr__(self) -> str:
        return f"SparsityPattern(n={self.n}, edges={self.num_edges})"

    def adjacency(self) -> list[set[int]]:
        """Adjacency sets indexed by node."""
        i, j = self.edge_array
        ends = np.concatenate((i, j))
        flat = np.concatenate((j, i))[np.argsort(ends)].tolist()
        bounds = np.bincount(ends, minlength=self.n).cumsum().tolist()
        return [set(flat[a:b]) for a, b in zip([0] + bounds, bounds)]


class Ordering:
    """Elimination order: ``perm[k]`` is the node eliminated at step k."""

    __slots__ = ("perm",)

    def __init__(self, perm: Iterable[int]):
        try:
            p = tuple(map(operator.index, perm))
        except TypeError as exc:
            raise OrderingError(f"ordering entries must be integers: {exc}") from None
        if sorted(p) != list(range(len(p))):
            raise OrderingError(
                f"sequence of length {len(p)} is not a permutation of 0..{len(p) - 1}")
        self.perm = p

    def __len__(self) -> int:
        return len(self.perm)

    def __iter__(self):
        return iter(self.perm)

    def __getitem__(self, k: int) -> int:
        return self.perm[k]

    def __eq__(self, other) -> bool:
        if isinstance(other, Ordering):
            return self.perm == other.perm
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        return f"Ordering({list(self.perm)})"

    def positions(self) -> list[int]:
        """Inverse map: positions()[v] is the step at which node v is eliminated."""
        pos = [0] * len(self.perm)
        for k, v in enumerate(self.perm):
            pos[v] = k
        return pos


def nnz_sym(p: SparsityPattern) -> int:
    """Nonzeros of the symmetric pattern, counting a structural diagonal for every node."""
    return 2 * p.num_edges + p.n


# ---------------------------------------------------------------------------
# Matrix Market coordinate I/O
# ---------------------------------------------------------------------------

# Largest node count a Matrix Market header may declare. Every ordering
# method allocates per node, so a few bytes declaring 10^9 nodes would
# exhaust memory; this is far above the few thousand nodes the package
# targets, and keeps every node index within int32.
MAX_NODES = 2 ** 20

_FIELDS = {"real", "integer", "pattern", "complex"}
_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}

# tokens per data line for each field
_ENTRY_WIDTH = {"pattern": 2, "real": 3, "integer": 3, "complex": 4}


@contextmanager
def _open_text(source: str | Path | IO[str], mode: str) -> Iterator[IO[str]]:
    """Open a path for the block and close it after; pass a file object
    through and leave it open."""
    if isinstance(source, (str, Path)):
        with open(source, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield source


def load_matrix_market(source: str | Path | IO[str]) -> SparsityPattern:
    """Read a Matrix Market coordinate file and return its symmetrized pattern.

    Numeric values are discarded; explicitly stored zeros count as nonzeros
    (pattern semantics) and duplicate entries are merged. General files are
    symmetrized as A + A^T; symmetric-family headers expand the stored
    triangle. The entry lines are parsed together into arrays. Raises
    PatternError on malformed input, naming the first bad entry line in file
    order, and on a declared size above ``MAX_NODES``.
    """
    with _open_text(source, "r") as fh:
        header = fh.readline()
        if not header:
            raise PatternError("empty file: missing MatrixMarket header")
        parts = header.strip().split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket":
            raise PatternError(f"malformed MatrixMarket header: {header.strip()!r}")
        obj, fmt, field, symmetry = (w.lower() for w in parts[1:])
        if obj != "matrix":
            raise PatternError(f"unsupported object {obj!r} (only 'matrix')")
        if fmt != "coordinate":
            raise PatternError(f"unsupported format {fmt!r} (only 'coordinate')")
        if field not in _FIELDS:
            raise PatternError(f"unsupported field {field!r}")
        if symmetry not in _SYMMETRIES:
            raise PatternError(f"unsupported symmetry {symmetry!r}")

        size_line = None
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size_line = stripped
            break
        if size_line is None:
            raise PatternError("missing size line")
        tokens = size_line.split()
        if len(tokens) != 3 or _off_spec(size_line):
            raise PatternError(f"malformed size line: {size_line!r}")
        try:
            rows, cols, count = (int(t) for t in tokens)
        except ValueError as exc:
            raise PatternError(f"malformed size line: {size_line!r}") from exc
        if rows != cols:
            raise PatternError(f"non-square matrix: {rows} x {cols}")
        if rows < 0 or count < 0:
            raise PatternError(f"negative dimensions in size line: {size_line!r}")
        if rows > MAX_NODES:
            raise PatternError(f"matrix declares {rows} nodes, more than the "
                               f"supported {MAX_NODES}")

        width = _ENTRY_WIDTH[field]
        lines = [s for s in map(str.strip, fh) if s and s[0] != "%"]
    # "|" after each line never parses as a number, so if every other token
    # does, each line held exactly ``width`` of them
    text = " | ".join(lines + [""])
    tokens = text.split()
    step = width + 1
    try:
        if len(lines) != count or len(tokens) != step * count or _off_spec(text):
            raise ValueError
        for c in range(2, width):
            np.fromiter(map(float, tokens[c::step]), np.float64, count)  # validate, then discard
        ends = np.stack([np.fromiter(map(int, tokens[c::step]), np.int64, count)
                         for c in (0, 1)], axis=1) - 1
        if count and (ends.min() < 0 or ends.max() >= rows):
            raise ValueError
    except (ValueError, OverflowError):
        raise _entry_error(lines, field, rows, count) from None
    loop = ends[:, 0] == ends[:, 1]
    return SparsityPattern(rows, ends[~loop], np.unique(ends[loop, 0]).tolist())


# int() and float() also read "1_0" as 10 and non-ASCII digits, which the format has not
def _off_spec(text: str) -> bool:
    return not text.isascii() or "_" in text


def _entry_error(lines: list[str], field: str, n: int, count: int) -> PatternError:
    """The error of the first entry line, in file order, that is malformed,
    out of range or past the declared ``count``; else the count mismatch."""
    width = _ENTRY_WIDTH[field]
    for k, line in enumerate(lines):
        tokens = line.split()
        if len(tokens) != width:
            return PatternError(f"expected {width} tokens for field {field!r}, got: {line!r}")
        try:
            if _off_spec(line):
                raise ValueError
            i, j = map(int, tokens[:2])
            list(map(float, tokens[2:]))
        except ValueError:
            return PatternError(f"malformed entry line: {line!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            return PatternError(f"entry ({i}, {j}) out of range for a {n} x {n} matrix")
        if k == count:
            return PatternError(f"more than the declared {count} entries")
    return PatternError(f"declared {count} entries but found {len(lines)}")


def write_matrix_market(p: SparsityPattern, target: str | Path | IO[str]) -> None:
    """Write a pattern as a symmetric coordinate Matrix Market file (lower triangle)."""
    with _open_text(target, "w") as fh:
        diagonal = np.array(sorted(p.diagonal), dtype=np.int64)
        rows = np.concatenate((p.edge_array[1], diagonal)) + 1   # row >= col
        cols = np.concatenate((p.edge_array[0], diagonal)) + 1
        order = np.lexsort((cols, rows))
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{p.n} {p.n} {len(rows)}\n")
        fh.write("".join(map("{} {}\n".format, rows[order].tolist(), cols[order].tolist())))


# ---------------------------------------------------------------------------
# Ordering file I/O: one 0-based node index per line, line k = node at step k
# ---------------------------------------------------------------------------

def load_ordering(source: str | Path | IO[str]) -> Ordering:
    with _open_text(source, "r") as fh:
        perm = []
        for line in fh:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                perm.append(int(stripped))
            except ValueError as exc:
                raise OrderingError(f"malformed ordering line: {stripped!r}") from exc
        return Ordering(perm)


def write_ordering(ordering: Ordering, target: str | Path | IO[str]) -> None:
    with _open_text(target, "w") as fh:
        for v in ordering:
            fh.write(f"{v}\n")
