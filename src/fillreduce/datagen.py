"""Training graph generation: Delaunay triangulations of random planar points.

Bowyer-Watson incremental insertion (Bowyer 1981, Watson 1981) inside a large
super-triangle. The live triangles' circumcircles sit in numpy arrays, so
each insertion finds its cavity, the triangles whose circumcircle holds the
new point, with one vectorized distance test over all of them; the few
distances within a relative 1e-12 of a radius are tested again in scalar
floats, so every decision, and the triangle list, is that of the plain
scalar loop. The work still grows as n^2, but it runs in numpy rather than
the interpreter. Uniform random points make exact in-circle ties
measure-zero; if one does occur the whole triangulation restarts with a
deterministic 1e-9-scale jitter so the generator stays total."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .sparsity import (MAX_NODES, PatternError, SparsityPattern, load_matrix_market,
                       write_matrix_market)

_SUPER_SCALE = 1e4
_SUPER = ((-_SUPER_SCALE, -_SUPER_SCALE),
          (2.0 + _SUPER_SCALE, -_SUPER_SCALE),
          (0.5, 1.5 * _SUPER_SCALE))
_MAX_JITTER_ATTEMPTS = 8

MANIFEST_NAME = "manifest.csv"


class DegenerateGeometry(RuntimeError):
    """Exact in-circle tie or collinear triangle; caller retries with jitter."""


def _circumcircle(a, b, c) -> tuple[float, float, float]:
    """Circumcenter and squared radius; raises on collinear vertices."""
    d = 2.0 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    if d == 0.0:
        raise DegenerateGeometry("collinear triangle vertices")
    a2 = a[0] * a[0] + a[1] * a[1]
    b2 = b[0] * b[0] + b[1] * b[1]
    c2 = c[0] * c[0] + c[1] * c[1]
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / d
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / d
    r2 = (a[0] - ux) ** 2 + (a[1] - uy) ** 2
    return ux, uy, r2


# A numpy square is a product, while the scalar ``** 2`` calls libm ``pow``;
# the two differ by one ulp for about one value in a thousand. A triangle
# whose squared distance from the new point lies within this margin of its
# squared radius (relative, with an absolute floor for subnormal radii) is
# tested again with scalar floats, so every decision is the scalar test's.
_RECHECK_REL = 1e-12
_RECHECK_ABS = 1e-300


def _circle_row(a, b, c) -> tuple[float, float, float, float]:
    ux, uy, r2 = _circumcircle(a, b, c)
    return ux, uy, r2, _RECHECK_REL * r2 + _RECHECK_ABS


def _triangulate(points) -> np.ndarray:
    """Bowyer-Watson; returns the triangles over the original point indices
    only, one row of three vertices each, as an int array of shape (t, 3).

    Super-triangle vertices take indices n..n+2 and every triangle touching
    them is dropped at the end. The live triangles are the columns of numpy
    arrays holding their vertices, their circumcircle (center and squared
    radius) and their creation number, so each insertion finds its cavity
    with one vectorized in-circle test over all of them, and the new
    triangles take the cavity's columns. Removing triangles from a list and
    appending new ones keeps it sorted by creation number, so visiting the
    cavity and returning the result in that order gives the triangle list of
    the same method run on a Python list.
    """
    n = len(points)
    coords = np.asarray(points, dtype=np.float64).tolist() + list(_SUPER)
    tris = np.empty((3, 2 * n + 8), dtype=np.int64)
    circles = np.empty((4, tris.shape[1]))  # center x, center y, r2, recheck margin
    created = np.empty(tris.shape[1], dtype=np.int64)
    tris[:, 0] = (n, n + 1, n + 2)
    circles[:, 0] = _circle_row(*_SUPER)
    created[0] = 0
    m = made = 1
    for idx in range(n):
        px, py = coords[idx]
        ux, uy, r2, margin = circles[:, :m]
        diff = (px - ux) ** 2 + (py - uy) ** 2 - r2
        bad = []
        # everything not clearly outside its circle, NaN included
        for t in np.flatnonzero(~(diff > margin)).tolist():
            if diff[t] < -margin[t]:
                bad.append(t)
                continue
            d2 = (px - float(ux[t])) ** 2 + (py - float(uy[t])) ** 2
            if d2 == r2[t]:
                raise DegenerateGeometry("exact in-circle tie")
            if d2 < r2[t]:
                bad.append(t)
        bad.sort(key=created.__getitem__)
        # cavity boundary: edges used by exactly one bad triangle
        edge_count: dict[tuple[int, int], int] = {}
        for u, v, w in zip(*tris[:, bad].tolist()):
            for e in ((u, v), (v, w), (w, u)):
                key = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
                edge_count[key] = edge_count.get(key, 0) + 1
        new = [(u, w, idx) for (u, w), count in edge_count.items() if count == 1]
        k = len(new)
        cols = bad[:k] + list(range(m, m + k - len(bad)))
        if m + k > created.size:
            tris, circles, created = (
                np.concatenate([a, np.empty_like(a, shape=a.shape[:-1] + (m + k,))], axis=-1)
                for a in (tris, circles, created))
        if new:
            tris[:, cols] = np.array(new).T
            circles[:, cols] = np.array([_circle_row(coords[u], coords[w], coords[idx])
                                         for u, w, _ in new]).T
            created[cols] = range(made, made + k)
        m += max(k - len(bad), 0)
        made += k
        for hole in sorted(bad[k:], reverse=True):
            # the cavity had more triangles than it left: close the gap
            m -= 1
            tris[:, hole], circles[:, hole], created[hole] = tris[:, m], circles[:, m], created[m]
    live = tris[:, np.argsort(created[:m])]
    return live[:, live.max(axis=0) < n].T


def _jitter(points: np.ndarray, attempt: int) -> np.ndarray:
    idx = np.arange(len(points))
    offset = np.stack([np.cos(0.7 + 3.1 * idx), np.sin(1.3 + 2.7 * idx)], axis=1)
    return np.clip(points + attempt * 1e-9 * offset, 0.0, 1.0)


def delaunay_triangles(points) -> np.ndarray:
    """Triangles of the Delaunay triangulation, an int array of shape (t, 3),
    retrying degenerate inputs with deterministic jitter."""
    pts = np.asarray(points, dtype=np.float64)
    last_error = None
    for attempt in range(_MAX_JITTER_ATTEMPTS):
        try:
            tris = _triangulate(pts if attempt == 0 else _jitter(pts, attempt))
        except DegenerateGeometry as exc:
            last_error = exc
            continue
        if len(tris) or len(pts) < 3:
            return tris
        last_error = DegenerateGeometry("all points collinear")
    raise DegenerateGeometry(f"could not triangulate the point set: {last_error}")


def _delaunay_pattern(points) -> SparsityPattern:
    tris = delaunay_triangles(points)
    return SparsityPattern(len(points), tris[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2))


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

    The result is connected and planar (|E| <= 3n - 6).
    """
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if n > MAX_NODES:
        raise ValueError(f"{n} points exceed the supported {MAX_NODES}")
    while True:
        points = rng.random((n, 2))
        # pairwise-distinct guard; duplicate draws are measure-zero
        if len(np.unique(points, axis=0)) != n:
            continue
        p = _delaunay_pattern(points)
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
