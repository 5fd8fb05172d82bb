"""Training graph generation: Delaunay triangulations of random planar points.

Bowyer-Watson incremental insertion inside a large super-triangle. Uniform
random points make exact in-circle ties measure-zero; if one does occur the
whole triangulation restarts with a deterministic 1e-9-scale jitter so the
generator stays total.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .sparsity import (PatternError, SparsityPattern, load_matrix_market,
                       write_matrix_market)

_SUPER_SCALE = 1e4
_SUPER = ((-_SUPER_SCALE, -_SUPER_SCALE),
          (2.0 + _SUPER_SCALE, -_SUPER_SCALE),
          (0.5, 1.5 * _SUPER_SCALE))
_MAX_JITTER_ATTEMPTS = 8

MANIFEST_NAME = "manifest.csv"


class DegenerateGeometry(RuntimeError):
    """Exact in-circle tie or collinear triangle; caller retries with jitter."""


def in_circle_det(a, b, c, p) -> float:
    """In-circle determinant: positive iff p lies strictly inside the
    circumcircle of triangle (a, b, c), after normalizing to CCW orientation."""
    orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if orient < 0:
        b, c = c, b
    ax, ay = a[0] - p[0], a[1] - p[1]
    bx, by = b[0] - p[0], b[1] - p[1]
    cx, cy = c[0] - p[0], c[1] - p[1]
    return ((ax * ax + ay * ay) * (bx * cy - by * cx)
            - (bx * bx + by * by) * (ax * cy - ay * cx)
            + (cx * cx + cy * cy) * (ax * by - ay * bx))


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


def _triangulate(points) -> list[tuple[int, int, int]]:
    """Bowyer-Watson; returns triangles over the original point indices only.

    Super-triangle vertices take indices n..n+2 and every triangle touching
    them is dropped at the end. Each triangle carries its precomputed
    circumcircle so insertion tests are a distance comparison.
    """
    n = len(points)
    coords = [tuple(p) for p in points] + list(_SUPER)
    tris: list[tuple[int, int, int]] = [(n, n + 1, n + 2)]
    circles = [_circumcircle(*_SUPER)]
    for idx in range(n):
        px, py = coords[idx]
        bad = []
        for t, (ux, uy, r2) in enumerate(circles):
            d2 = (px - ux) ** 2 + (py - uy) ** 2
            if d2 == r2:
                raise DegenerateGeometry("exact in-circle tie")
            if d2 < r2:
                bad.append(t)
        # cavity boundary: edges used by exactly one bad triangle
        edge_count: dict[tuple[int, int], int] = {}
        for t in bad:
            u, v, w = tris[t]
            for e in ((u, v), (v, w), (w, u)):
                key = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
                edge_count[key] = edge_count.get(key, 0) + 1
        bad_set = set(bad)
        tris = [t for i, t in enumerate(tris) if i not in bad_set]
        circles = [c for i, c in enumerate(circles) if i not in bad_set]
        for (u, w), count in edge_count.items():
            if count == 1:
                tris.append((u, w, idx))
                circles.append(_circumcircle(coords[u], coords[w], coords[idx]))
    return [t for t in tris if max(t) < n]


def _jitter(points: np.ndarray, attempt: int) -> np.ndarray:
    idx = np.arange(len(points))
    offset = np.stack([np.cos(0.7 + 3.1 * idx), np.sin(1.3 + 2.7 * idx)], axis=1)
    return np.clip(points + attempt * 1e-9 * offset, 0.0, 1.0)


def delaunay_triangles(points) -> list[tuple[int, int, int]]:
    """Triangles of the Delaunay triangulation, retrying degenerate inputs
    with deterministic jitter."""
    pts = np.asarray(points, dtype=np.float64)
    last_error = None
    for attempt in range(_MAX_JITTER_ATTEMPTS):
        try:
            tris = _triangulate(pts if attempt == 0 else _jitter(pts, attempt))
        except DegenerateGeometry as exc:
            last_error = exc
            continue
        if tris or len(pts) < 3:
            return tris
        last_error = DegenerateGeometry("all points collinear")
    raise DegenerateGeometry(f"could not triangulate the point set: {last_error}")


def delaunay_edges(points) -> set[tuple[int, int]]:
    edges = set()
    for a, b, c in delaunay_triangles(points):
        edges.add((min(a, b), max(a, b)))
        edges.add((min(b, c), max(b, c)))
        edges.add((min(a, c), max(a, c)))
    return edges


def _connected(n: int, edges: set[tuple[int, int]]) -> bool:
    if n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def generate_delaunay(n: int, rng: np.random.Generator) -> SparsityPattern:
    """Pattern of the Delaunay triangulation of n uniform points in the unit square.

    The result is connected and planar (|E| <= 3n - 6).
    """
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    while True:
        points = rng.random((n, 2))
        # pairwise-distinct guard; duplicate draws are measure-zero
        if len(np.unique(points, axis=0)) != n:
            continue
        edges = delaunay_edges(points)
        if _connected(n, edges):
            return SparsityPattern(n, edges)


def generate_training_set(count: int, n_min: int = 60, n_max: int = 200,
                          rng: np.random.Generator | None = None
                          ) -> list[SparsityPattern]:
    """Delaunay patterns with sizes drawn uniformly from [n_min, n_max]."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if not 3 <= n_min <= n_max:
        raise ValueError(f"invalid size bounds [{n_min}, {n_max}]")
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
            writer.writerow([i, name, p.n, len(p.edges)])
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
