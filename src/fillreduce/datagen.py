"""Training graph generation: Delaunay triangulations of uniform random points.

``generate_delaunay`` draws n points uniformly from the unit square and
returns the pattern of their Delaunay triangulation, which the tests check
against ``scipy.spatial.Delaunay``. It draws again when two points coincide,
or when the triangulation meets an exact tie (a point on a circle or on a
half-plane's edge) or a triangle of (nearly) zero area; for uniform points
each is rare or measure-zero.

The triangulation is Bowyer-Watson incremental insertion (Bowyer 1981,
Watson 1981) inside a super-triangle whose three vertices lie infinitely far
out along the directions ``_SUPER_DIRECTIONS`` (de Berg et al.,
*Computational Geometry*, 3rd ed., ch. 9), so no triangle of the points is
lost to it. Each live triangle owns one column ``(a, b, c, s)`` of a numpy
array: a point (x, y) lies inside it iff ``a*x + b*y + c + s*(x*x + y*y) < 0``.
A triangle of three points holds its lifted circumcircle (``s = 1``); one
that touches a super vertex holds the half-plane its circle tends to as the
super vertices go to infinity (``s = 0``). So each insertion finds its
cavity with one vectorized test over all columns and stores the new
triangles' columns with one write. Each decision is exact: a fifth row
bounds the rounding error of each column's value, and a value within its
bound of 0 is computed again in rational arithmetic. The work grows as n^2,
but its part that grows with the number of triangles runs in numpy."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .sparsity import (MAX_NODES, PatternError, SparsityPattern, load_matrix_market,
                       write_matrix_market)

# The super vertices n, n + 1 and n + 2 lie at M times these, for M -> infinity.
_SUPER_DIRECTIONS = ((-1, -1), (1, -1), (0, 1))
# Keyed by the sum of two super vertices' offsets from n: a direction from
# the origin to the circumcenter of the origin and those two directions. A
# triangle of a point p and those two super vertices holds the points q with
# (q - p) . center > 0.
_PAIR_CENTERS = {1: (0, -1), 2: (-3, 1), 3: (3, 1)}
# A test value computed in floating point for a point of the unit square is
# within _ROUNDING times its column's size of the exact one (see _column), by
# a margin of about 64; a value that close to 0 is decided again exactly.
_ROUNDING = 2.0 ** -40

MANIFEST_NAME = "manifest.csv"


class DegenerateGeometry(RuntimeError):
    """A point set that ``_triangulate`` cannot decide: an exact tie (a point
    on a circle or on a half-plane's edge), a triangle of area below about
    2e-13, an edge parallel to a super vertex's direction, or a cavity that
    is not a disk."""


def _column(lifted, n, u, w, p):
    """The column ``(a, b, c, s, e)`` of the new triangle ``(u, w, p)``:
    its test and a bound e on the test value's rounding error at any point
    of the unit square. p is a point, u and w are points or super vertices
    (index >= n), and ``lifted[i]`` is point i as ``(x, y, x*x + y*y)``, in
    floats or, for an exact column, in Fractions.

    The bound of a circle, for the unit roundoff u = 2**-53: each coordinate
    of its center U is a quotient by d (|d| <= 4) of three terms whose
    absolute values add up to at most 4, so it is off by at most
    2 * (32u * (1 + |U|) / |d| + u|U|) once |d| > 64u. The value at q is
    the power |q - U|^2 - r2, which moves by 2 (q - v) . dU with the center,
    for the vertex v that r2 is measured from; rounding c and the sum adds
    at most 13u(|U|^2 + r2) + 10u(|ux| + |uy|) + 14u. The returned bound
    exceeds that sum 64 times over. A half-plane's value is off by less
    than 32u."""
    px, py, p2 = lifted[p]
    if u >= n and w >= n:   # the side of the line through p that faces their circumcenter
        cx, cy = _PAIR_CENTERS[u + w - 2 * n]
        return -cx, -cy, cx * px + cy * py, 0, _ROUNDING
    if u >= n or w >= n:    # the side of the edge's line that faces the super vertex
        k, r = (u - n, w) if u >= n else (w - n, u)
        rx, ry, _ = lifted[r]
        nx, ny = py - ry, rx - px
        dx, dy = _SUPER_DIRECTIONS[k]
        side = math.fsum((dx * py, -dx * ry, dy * rx, -dy * px))    # its sign is exact
        if side == 0.0:
            raise DegenerateGeometry("an edge parallel to a super vertex's direction")
        if side < 0.0:
            nx, ny = -nx, -ny
        return -nx, -ny, nx * px + ny * py, 0, _ROUNDING
    (ax, ay, a2), (bx, by, b2) = lifted[u], lifted[w]
    d = 2 * ((bx - ax) * (py - ay) - (by - ay) * (px - ax))
    if abs(d) <= _ROUNDING:
        raise DegenerateGeometry("a triangle of (nearly) zero area")
    ux = (a2 * (by - py) + b2 * (py - ay) + p2 * (ay - by)) / d
    uy = (a2 * (px - bx) + b2 * (ax - px) + p2 * (bx - ax)) / d
    dx, dy = ax - ux, ay - uy
    r2 = dx * dx + dy * dy
    size = 2 + abs(ux) + abs(uy)
    return -2 * ux, -2 * uy, ux * ux + uy * uy - r2, 1, _ROUNDING * (size * size + r2 + size / abs(d))


def _exact_value(points, n, tri, q):
    """Triangle ``tri``'s test value at point q, as a Fraction."""
    from fractions import Fraction  # here: it loads decimal, which most draws never need
    lifted = {}
    for i in (*tri, q):
        if i < n:
            x, y = map(Fraction, points[i])
            lifted[i] = (x, y, x * x + y * y)
    a, b, c, s, _ = _column(lifted, n, *tri)
    x, y, q2 = lifted[q]
    return a * x + b * y + c + s * q2


def _triangulate(points) -> np.ndarray:
    """Bowyer-Watson over points of the unit square; returns their Delaunay
    triangles, one row of three point indices each, as an int array of shape
    (t, 3). Every in-circle decision is exact: a value within its rounding
    bound of 0 is computed again in Fractions. Raises ``DegenerateGeometry``
    on an exact tie or a triangle it cannot decide.

    Each triangle owns a column: its vertices sit in a Python list, its test
    column and bound in a numpy array. A cavity of b triangles has b + 2
    boundary edges, so its new triangles take the cavity's columns and two
    new ones.
    """
    n = len(points)
    coords = np.asarray(points, dtype=np.float64).tolist()
    lifted = [(x, y, x * x + y * y) for x, y in coords]
    tris = [(n, n + 1, n + 2)]
    columns = np.empty((5, 2 * n + 1))
    columns[:, 0] = (0.0, 0.0, -1.0, 0.0, 0.0)    # the all-super triangle holds every point
    for idx, (x, y, q2) in enumerate(lifted):
        m = len(tris)
        a, b, c, s, err = columns[:, :m]
        value = a * x + b * y + c + s * q2
        bad = (value <= err).nonzero()[0]   # inside, or too close to tell
        for t in bad[value[bad] >= -err[bad]].tolist():
            exact = _exact_value(coords, n, tris[t], idx)
            if exact == 0:
                raise DegenerateGeometry("an exact tie")
            if exact > 0:
                bad = bad[bad != t]
        bad = bad.tolist()
        # cavity boundary: edges used by exactly one bad triangle
        edge_count: dict[tuple[int, int], int] = {}
        for t in bad:
            u, v, w = tris[t]
            for e in ((u, v), (v, w), (w, u)):
                key = e if e[0] < e[1] else (e[1], e[0])
                edge_count[key] = edge_count.get(key, 0) + 1
        new = [(u, w, idx) for (u, w), count in edge_count.items() if count == 1]
        if len(new) != len(bad) + 2:
            raise DegenerateGeometry("a cavity that is not a disk")
        for col, tri in zip(bad, new):
            tris[col] = tri
        tris += new[-2:]
        columns.T[bad + [m, m + 1]] = [_column(lifted, n, u, w, idx) for u, w, _ in new]
    return np.array([t for t in tris if max(t) < n], dtype=np.int64).reshape(-1, 3)


def generate_delaunay(n: int, rng: np.random.Generator) -> SparsityPattern:
    """Pattern of the Delaunay triangulation of n uniform points in the unit
    square, so connected and planar (|E| <= 3n - 6). A draw with two equal
    points, or one that ``_triangulate`` refuses, is drawn again."""
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if n > MAX_NODES:
        raise ValueError(f"{n} points exceed the supported {MAX_NODES}")
    while True:     # coinciding points or a tie: measure-zero
        points = rng.random((n, 2))
        ranked = points[np.lexsort(points.T)]   # np.unique would import numpy.ma
        if (ranked[1:] == ranked[:-1]).all(axis=1).any():
            continue
        try:
            tris = _triangulate(points)
        except DegenerateGeometry:
            continue
        return SparsityPattern(n, tris[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2))


def generate_training_set(count: int, n_min: int = 60, n_max: int = 200,
                          rng: np.random.Generator | None = None
                          ) -> list[SparsityPattern]:
    """Delaunay patterns with sizes drawn uniformly from [n_min, n_max]."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if not 3 <= n_min <= n_max <= MAX_NODES:
        raise ValueError(f"invalid size bounds [{n_min}, {n_max}]; need "
                         f"3 <= n_min <= n_max <= {MAX_NODES}")
    if rng is None:
        rng = np.random.default_rng(0)
    sizes = rng.integers(n_min, n_max + 1, size=count)
    return [generate_delaunay(int(n), rng) for n in sizes]


# ---------------------------------------------------------------------------
# On-disk training sets: one .mtx per graph plus a manifest of ids and sizes
# ---------------------------------------------------------------------------

def write_training_set(patterns: list[SparsityPattern], out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / MANIFEST_NAME
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "file", "n", "edges"])
        for i, p in enumerate(patterns):
            name = f"delaunay_{i:05d}.mtx"
            write_matrix_market(p, out / name)
            writer.writerow([i, name, p.n, p.num_edges])
    return manifest


def training_set_files(data_dir: str | Path) -> list[Path]:
    """The graph files of a training set in load order: those its manifest
    names, or every .mtx in sorted order. Reads no graph file."""
    data = Path(data_dir)
    manifest = data / MANIFEST_NAME
    if manifest.exists():
        try:
            with open(manifest, encoding="utf-8", newline="") as fh:
                reader = csv.DictReader(fh)
                files = [row.get("file") for row in reader]
        except UnicodeDecodeError as exc:
            raise PatternError(f"{manifest}: {exc}") from None
        if "file" not in (reader.fieldnames or ()) or None in files:
            raise PatternError(f"manifest {manifest} needs a 'file' entry in every row")
        return [data / name for name in files]
    files = sorted(data.glob("*.mtx"))
    if not files:
        raise FileNotFoundError(f"no manifest and no .mtx files in {data}")
    return files


def load_training_set(data_dir: str | Path) -> list[SparsityPattern]:
    """The graphs of ``training_set_files``; a bad one raises a PatternError that names it."""
    patterns = []
    for path in training_set_files(data_dir):
        try:
            patterns.append(load_matrix_market(path))
        except (PatternError, UnicodeDecodeError) as exc:
            raise PatternError(f"{path}: {exc}") from None
    return patterns
