"""Training graph generation: Delaunay triangulations of random planar points.

Bowyer-Watson incremental insertion (Bowyer 1981, Watson 1981) inside a large
super-triangle. Each live triangle's vertices and creation number sit in
Python lists, and only the circumcircles (center, squared radius, recheck
margin) sit in a numpy array. So each insertion finds its cavity, the
triangles whose circumcircle holds the new point, with one vectorized
distance test over all circles, and stores the new triangles' circles,
computed in scalar floats from each point's squared norm, with one write.
The few distances within a relative 1e-12 of a radius are tested again in
scalar floats, so every decision, and the triangle list, is that of the
plain scalar loop. The work still grows as n^2, but its part that grows with
the number of triangles runs in numpy. ``delaunay_triangles`` takes finite,
distinct points at any scale and maps them into the unit square, which the
super-triangle is sized for. Uniform random points make exact in-circle ties
measure-zero; if one does occur the whole triangulation restarts with a
deterministic 1e-9-scale jitter. ``delaunay_triangles`` refuses a set that
needs the jitter but holds two points that it would move onto or past each
other, and ``generate_delaunay``, which triangulates each uniform draw
through it, draws again when it refuses one."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .sparsity import (MAX_NODES, PatternError, SparsityPattern, load_matrix_market,
                       write_matrix_market)

_SUPER_SCALE = 1e4
_SUPER = ((-_SUPER_SCALE, -_SUPER_SCALE),
          (2.0 + _SUPER_SCALE, -_SUPER_SCALE),
          (0.5, 1.5 * _SUPER_SCALE))
_MAX_JITTER_ATTEMPTS = 8
_JITTER_STEP = 1e-9

MANIFEST_NAME = "manifest.csv"


class DegenerateGeometry(RuntimeError):
    """A point set that ``delaunay_triangles`` cannot triangulate; inside it,
    an exact in-circle tie or collinear triangle, which it retries with jitter."""


# A numpy square is a product, while the scalar ``** 2`` calls libm ``pow``;
# the two differ by one ulp for about one value in a thousand. A triangle
# whose squared distance from the new point lies within this margin of its
# squared radius (relative, with an absolute floor for subnormal radii) is
# tested again with scalar floats, so every decision is the scalar test's.
_RECHECK_REL = 1e-12
_RECHECK_ABS = 1e-300
# The circle of a column whose triangle is gone: every point is clearly outside.
_NO_CIRCLE = (0.0, 0.0, -np.inf, 0.0)


def _lift(p) -> tuple[float, float, float]:
    return p[0], p[1], p[0] * p[0] + p[1] * p[1]


def _circle_row(a, b, c) -> tuple[float, float, float, float]:
    """Circumcenter, squared radius and recheck margin of three points each
    given lifted, as ``(x, y, x*x + y*y)``; raises on collinear vertices."""
    (ax, ay, a2), (bx, by, b2), (cx, cy, c2) = a, b, c
    d = 2.0 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    if d == 0.0:
        raise DegenerateGeometry("collinear triangle vertices")
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return ux, uy, r2, _RECHECK_REL * r2 + _RECHECK_ABS


def _triangulate(points) -> np.ndarray:
    """Bowyer-Watson; returns the triangles over the original point indices
    only, one row of three vertices each, as an int array of shape (t, 3).

    Super-triangle vertices take indices n..n+2 and every triangle touching
    them is dropped at the end. Each triangle owns a column: its vertices
    and creation number sit in Python lists, its circumcircle (center,
    squared radius, recheck margin) in a numpy array, so each insertion
    finds its cavity with one vectorized in-circle test over all columns
    and stores the new circles with one write. New triangles take the
    cavity's columns, then new ones at the end; a cavity that leaves fewer
    triangles than it removed (only around points far outside the
    super-triangle) gives its spare columns a circle that holds nothing.
    Visiting the cavity and returning the result in creation order gives
    the triangle list of the same method run on a Python list.
    """
    n = len(points)
    lifted = [_lift(p) for p in np.asarray(points, dtype=np.float64).tolist()]
    lifted += [_lift(p) for p in _SUPER]
    tris: list[tuple[int, int, int] | None] = [(n, n + 1, n + 2)]
    created = [0]
    circles = np.empty((4, 2 * n + 8))  # center x, center y, r2, recheck margin
    circles[:, 0] = _circle_row(*lifted[n:])
    made = 1
    for idx in range(n):
        p = lifted[idx]
        px, py, _ = p
        m = len(tris)
        ux, uy, r2, margin = circles[:, :m]
        diff = (px - ux) ** 2 + (py - uy) ** 2 - r2
        bad = []
        # everything not clearly outside its circle, NaN included
        for t in (~(diff > margin)).nonzero()[0].tolist():
            if diff[t] < -margin[t]:
                bad.append(t)
                continue
            d2 = (px - float(ux[t])) ** 2 + (py - float(uy[t])) ** 2
            if d2 == r2[t]:
                raise DegenerateGeometry("exact in-circle tie")
            if d2 < r2[t]:
                bad.append(t)
        if not bad:
            continue
        bad.sort(key=created.__getitem__)
        # cavity boundary: edges used by exactly one bad triangle
        edge_count: dict[tuple[int, int], int] = {}
        for t in bad:
            u, v, w = tris[t]
            for a, b in ((u, v), (v, w), (w, u)):
                key = (a, b) if a < b else (b, a)
                edge_count[key] = edge_count.get(key, 0) + 1
        new = [(u, w, idx) for (u, w), count in edge_count.items() if count == 1]
        k = len(new)
        rows = [_circle_row(lifted[u], lifted[w], p) for u, w, _ in new]
        for col, tri, number in zip(bad, new, range(made, made + k)):
            tris[col] = tri
            created[col] = number
        cols = bad[:k] + list(range(m, m + k - len(bad)))
        tris += new[len(bad):]
        created += range(made + len(bad), made + k)
        made += k
        for col in bad[k:]:
            tris[col] = None
            cols.append(col)
            rows.append(_NO_CIRCLE)
        if len(tris) > circles.shape[1]:
            circles = np.concatenate([circles, np.empty((4, len(tris)))], axis=1)
        circles.T[cols] = rows
    order = sorted(range(len(tris)), key=created.__getitem__)
    live = [tris[col] for col in order if tris[col] is not None and max(tris[col]) < n]
    return np.array(live, dtype=np.int64).reshape(-1, 3)


def _jitter(points: np.ndarray, attempt: int) -> np.ndarray:
    idx = np.arange(len(points))
    offset = np.stack([np.cos(0.7 + 3.1 * idx), np.sin(1.3 + 2.7 * idx)], axis=1)
    return np.clip(points + attempt * _JITTER_STEP * offset, 0.0, 1.0)


def _jitter_crossing(points: np.ndarray) -> tuple[int, ...] | None:
    """Indices of two distinct points that some jitter attempt moves onto or
    past each other, so that their difference turns by 90 degrees or more,
    or None. Only points closer than twice the largest jitter step can
    cross; a sweep over the points in x order finds those pairs."""
    reach = 2.0 * (_MAX_JITTER_ATTEMPTS - 1) * _JITTER_STEP
    order = np.argsort(points[:, 0], kind="stable")
    jittered = [_jitter(points, attempt) for attempt in range(1, _MAX_JITTER_ATTEMPTS)]
    for shift in range(1, len(points)):
        i, j = order[:-shift], order[shift:]
        d = points[j] - points[i]
        if not (d[:, 0] < reach).any():
            break
        near = np.flatnonzero((np.abs(d) < reach).all(axis=1))
        i, j, d = i[near], j[near], d[near]
        for q in jittered:
            crossed = np.flatnonzero(((q[j] - q[i]) * d).sum(axis=1) <= 0.0)
            if len(crossed):
                return tuple(sorted((int(i[crossed[0]]), int(j[crossed[0]]))))
    return None


def _duplicate_pair(points: np.ndarray) -> tuple[int, int] | None:
    """Indices of two points with equal coordinates, or None if all differ."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    ranked = points[order]
    same = np.flatnonzero((ranked[1:] == ranked[:-1]).all(axis=1))
    if not len(same):
        return None
    i, j = sorted(order[same[0]:same[0] + 2].tolist())
    return i, j


def _into_unit_square(points: np.ndarray) -> np.ndarray:
    """The points moved by one translation, taking their bounding box's
    lower corner to the origin, and one scale by a power of two, taking its
    longer side into (1/2, 1]. The super-triangle and the jitter are sized
    for points that fill the unit square, and a similarity keeps the
    Delaunay triangulation. The scale is exact, so only the translation
    rounds; a set that spans [0, 1] from the origin maps to itself."""
    if not len(points):
        return points
    (x_lo, y_lo), (x_hi, y_hi) = points.min(axis=0).tolist(), points.max(axis=0).tolist()
    span = max(x_hi - x_lo, y_hi - y_lo)
    if span == np.inf:
        raise ValueError("the points span a wider range than a float holds")
    fraction, exponent = math.frexp(span)
    return np.ldexp(points - (x_lo, y_lo), -(exponent - (fraction == 0.5)))


def delaunay_triangles(points) -> np.ndarray:
    """Triangles of the Delaunay triangulation, an int array of shape (t, 3).

    ``points`` is anything ``np.asarray`` makes an (n, 2) float array of,
    finite and pairwise distinct, at any scale: they are mapped into the
    unit square first. A set that meets an exact tie is retried with
    deterministic jitter; raises ``ValueError`` naming a bad shape, a point
    that is not finite, two points that coincide, as given or once mapped,
    or two points of a degenerate set that the jitter cannot keep apart,
    and ``DegenerateGeometry`` for three or more points on one line, a set
    too thin to keep a triangle, or a tie that no attempt resolves."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape == (0,):
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    not_finite = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(not_finite):
        i = int(not_finite[0])
        raise ValueError(f"point {i} is not finite: {tuple(pts[i].tolist())}")
    unit = _into_unit_square(pts)
    for mapped, where in ((pts, ""), (unit, " once mapped into the unit square")):
        pair = _duplicate_pair(mapped)
        if pair is not None:
            i, j = pair
            raise ValueError(f"points {i} {tuple(pts[i].tolist())} and {j} "
                             f"{tuple(pts[j].tolist())} coincide{where}")
    if len(unit) >= 3:     # exactly on one line: the jitter would only make slivers
        d = unit - unit[0]
        far = d[int(np.argmax((d * d).sum(axis=1)))]
        if not (far[0] * d[:, 1] - far[1] * d[:, 0]).any():
            raise DegenerateGeometry("could not triangulate the point set: all points collinear")
    error = None
    for attempt in range(_MAX_JITTER_ATTEMPTS):
        if attempt == 1:    # a degenerate set: refuse one the jitter cannot keep apart
            pair = _jitter_crossing(unit)
            if pair is not None:
                i, j = pair
                raise ValueError(f"points {i} {tuple(pts[i].tolist())} and {j} "
                                 f"{tuple(pts[j].tolist())} lie too close for the jitter "
                                 f"that resolves a degenerate set to keep them apart")
        try:
            tris = _triangulate(unit if attempt == 0 else _jitter(unit, attempt))
        except DegenerateGeometry as exc:
            error = exc
            continue
        if len(tris) or len(unit) < 3:
            return tris
        error = "the set is too thin for the super-triangle, which took every triangle"
    raise DegenerateGeometry(f"could not triangulate the point set: {error}")


def _connected(p: SparsityPattern) -> bool:
    if p.n <= 1:
        return True
    adj = p.adjacency()
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == p.n


def generate_delaunay(n: int, rng: np.random.Generator) -> SparsityPattern:
    """Pattern of the Delaunay triangulation of n uniform points in the unit square.

    The result is connected and planar (|E| <= 3n - 6). A draw that
    ``delaunay_triangles`` refuses with a ``ValueError`` is drawn again.
    """
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if n > MAX_NODES:
        raise ValueError(f"{n} points exceed the supported {MAX_NODES}")
    while True:
        try:    # coinciding points or an unresolvable tie: measure-zero
            tris = delaunay_triangles(rng.random((n, 2)))
        except ValueError:
            continue
        p = SparsityPattern(n, tris[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2))
        if _connected(p):
            return p


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


def load_training_set(data_dir: str | Path) -> list[SparsityPattern]:
    """Load a generated set via its manifest, or every .mtx in sorted order."""
    data = Path(data_dir)
    manifest = data / MANIFEST_NAME
    if manifest.exists():
        with open(manifest, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            files = [row.get("file") for row in reader]
        if "file" not in (reader.fieldnames or ()) or None in files:
            raise PatternError(f"manifest {manifest} needs a 'file' entry in every row")
        return [load_matrix_market(data / name) for name in files]
    files = sorted(data.glob("*.mtx"))
    if not files:
        raise FileNotFoundError(f"no manifest and no .mtx files in {data}")
    return [load_matrix_market(f) for f in files]
