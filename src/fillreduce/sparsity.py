"""Sparse matrix patterns as undirected graphs, plus Matrix Market / ordering file I/O.

Only the zero/nonzero structure matters here: numeric values are parsed for
validation and then dropped, and unsymmetric inputs are symmetrized so the
pattern always describes an undirected graph.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator


class PatternError(ValueError):
    """Malformed input file or invalid pattern data."""


class OrderingError(ValueError):
    """Sequence is not a permutation of the expected node set."""


def _canonical_edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


class SparsityPattern:
    """Symmetric off-diagonal nonzero structure of an n x n matrix.

    Edges are undirected index pairs stored in canonical (min, max) form with
    no self-loops and no duplicates. ``diagonal`` records which nodes carried
    an explicitly stored diagonal entry; it is informational only (a structural
    diagonal is assumed present for every node regardless).

    Instances are immutable by convention and safe to share across workers.
    """

    __slots__ = ("n", "edges", "diagonal")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 diagonal: Iterable[int] = ()):
        if n < 0:
            raise PatternError(f"node count must be nonnegative, got {n}")
        canon = set()
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise PatternError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise PatternError(f"self-loop edge ({i}, {j}) is not allowed")
            canon.add(_canonical_edge(i, j))
        diag = set()
        for d in diagonal:
            if not 0 <= d < n:
                raise PatternError(f"diagonal index {d} out of range for n={n}")
            diag.add(d)
        self.n = n
        self.edges = frozenset(canon)
        self.diagonal = frozenset(diag)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsityPattern):
            return NotImplemented
        return (self.n, self.edges, self.diagonal) == (other.n, other.edges, other.diagonal)

    def __hash__(self) -> int:
        return hash((self.n, self.edges, self.diagonal))

    def __repr__(self) -> str:
        return f"SparsityPattern(n={self.n}, edges={len(self.edges)})"

    def adjacency(self) -> list[set[int]]:
        """Adjacency sets indexed by node."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


class Ordering:
    """Elimination order: ``perm[k]`` is the node eliminated at step k."""

    __slots__ = ("perm",)

    def __init__(self, perm: Iterable[int]):
        p = tuple(int(v) for v in perm)
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
    return 2 * len(p.edges) + p.n


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
    triangle. Raises PatternError on malformed input and on a declared
    size above ``MAX_NODES``.
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
        if len(tokens) != 3:
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
        edges: set[tuple[int, int]] = set()
        diagonal: set[int] = set()
        seen = 0
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            tokens = stripped.split()
            if len(tokens) != width:
                raise PatternError(
                    f"expected {width} tokens for field {field!r}, got: {stripped!r}")
            try:
                i = int(tokens[0])
                j = int(tokens[1])
                for t in tokens[2:]:
                    float(t)  # validate, then discard
            except ValueError as exc:
                raise PatternError(f"malformed entry line: {stripped!r}") from exc
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise PatternError(
                    f"entry ({i}, {j}) out of range for a {rows} x {cols} matrix")
            seen += 1
            if seen > count:
                raise PatternError(f"more than the declared {count} entries")
            if i == j:
                diagonal.add(i - 1)
            else:
                edges.add(_canonical_edge(i - 1, j - 1))
        if seen != count:
            raise PatternError(f"declared {count} entries but found {seen}")
        return SparsityPattern(rows, edges, diagonal)


def write_matrix_market(p: SparsityPattern, target: str | Path | IO[str]) -> None:
    """Write a pattern as a symmetric coordinate Matrix Market file (lower triangle)."""
    with _open_text(target, "w") as fh:
        entries = len(p.edges) + len(p.diagonal)
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        fh.write(f"{p.n} {p.n} {entries}\n")
        lines = [(d, d) for d in p.diagonal]
        lines.extend((j, i) for i, j in p.edges)  # row >= col
        for r, c in sorted(lines):
            fh.write(f"{r + 1} {c + 1}\n")


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
