import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_circle_det, reference_triangulate
from fillreduce import (generate_delaunay, generate_training_set,
                        load_training_set, write_training_set)
from fillreduce.datagen import (DegenerateGeometry, _into_unit_square, _triangulate,
                               delaunay_triangles)
from fillreduce.sparsity import MAX_NODES, SparsityPattern


def delaunay_edges(points) -> set[tuple[int, int]]:
    """The triangulation's edges, each once as (min, max)."""
    return {(int(min(u, v)), int(max(u, v)))
            for a, b, c in delaunay_triangles(points) for u, v in ((a, b), (b, c), (a, c))}


def connected(n, edges):
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_three_points_make_one_triangle():
    pts = [(0.1, 0.1), (0.9, 0.2), (0.5, 0.8)]
    tris = delaunay_triangles(pts)
    assert tris.dtype.kind == "i" and tris.tolist() == [[0, 1, 2]]
    assert delaunay_edges(pts) == {(0, 1), (0, 2), (1, 2)}


def test_four_points_in_convex_position():
    # near-square: two triangles, five edges (hull + one diagonal)
    pts = np.array([(0.0, 0.0), (1.0, 0.05), (1.0, 1.0), (0.05, 1.0)])
    edges = delaunay_edges(pts)
    assert len(edges) == 5
    diagonal = next(e for e in edges
                    if e not in {(0, 1), (1, 2), (2, 3), (0, 3)})
    # the chosen diagonal must satisfy the empty-circumcircle property:
    # each triangle it induces excludes the opposite point
    a, b = diagonal
    others = [v for v in range(4) if v not in diagonal]
    for c in others:
        opposite = next(v for v in others if v != c)
        assert in_circle_det(pts[a], pts[b], pts[c], pts[opposite]) < 0


def test_empty_circumcircle_property_random_sets():
    rng = np.random.default_rng(61)
    for _ in range(15):
        n = int(rng.integers(4, 25))
        pts = rng.random((n, 2))
        for a, b, c in delaunay_triangles(pts):
            for v in range(n):
                if v in (a, b, c):
                    continue
                assert in_circle_det(pts[a], pts[b], pts[c], pts[v]) <= 1e-9


def test_matches_scipy_triangulation():
    from scipy.spatial import Delaunay as SciDelaunay

    rng = np.random.default_rng(62)
    # the unit square, then sets far larger or far smaller than it, some
    # centred on the origin, which a similarity maps into it
    for scale in (1.0, 10.0, 1e3, 1e4, 1e6, 1e-6, 1e-9):
        for offset in (0.0, -0.5, 0.4):
            for _ in range(10 if scale == 1.0 and offset == 0.0 else 4):
                pts = (rng.random((int(rng.integers(5, 60)), 2)) + offset) * scale
                ref = set()
                for simplex in SciDelaunay(pts).simplices:
                    a, b, c = sorted(int(v) for v in simplex)
                    ref |= {(a, b), (b, c), (a, c)}
                assert delaunay_edges(pts) == ref, (scale, offset)


@pytest.mark.parametrize("span", [1e-6, 1e-8, 1e-10])
def test_small_cluster_away_from_the_origin(span):
    # scipy sees the cluster moved to the origin: on 0.4 + span * u its own
    # triangles fail the empty-circle test at these spans
    from scipy.spatial import Delaunay as SciDelaunay

    rng = np.random.default_rng(68)
    for _ in range(5):
        pts = 0.4 + rng.random((40, 2)) * span
        ref = set()
        for simplex in SciDelaunay(pts - pts.min(axis=0)).simplices:
            a, b, c = sorted(int(v) for v in simplex)
            ref |= {(a, b), (b, c), (a, c)}
        assert delaunay_edges(pts) == ref


def test_collinear_points_resolved_by_jitter():
    # fully collinear sets have no triangulation at all, even with two
    # adjacent doubles, which the jitter would turn into zero-area triangles
    for pts in ([(0.1, 0.1), (0.5, 0.5), (0.9, 0.9), (0.3, 0.3)],
                [(0.0, 0.25), (0.1, 0.25), (0.2, 0.25), (0.3, 0.25)],
                [(0.0, 0.25), (0.24, 0.25), (np.nextafter(0.24, 1.0), 0.25), (0.3, 0.25)]):
        with pytest.raises(DegenerateGeometry, match="all points collinear$"):
            delaunay_triangles(pts)
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    edges = delaunay_edges(square)  # exactly cocircular: tie broken by jitter
    assert len(edges) == 5
    for side in (1.0, 2.0, 10.0):
        # a cocircular square and an interior point: four triangles around
        # it at every size, the jitter acting in the unit square
        corners = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)]
        tris = delaunay_triangles(corners + [(0.5 * side, 0.3 * side)])
        assert sorted(map(sorted, tris.tolist())) == [[0, 1, 4], [0, 3, 4], [1, 2, 4], [2, 3, 4]]


def test_thin_set_is_not_called_collinear():
    # a triangle of area 2.2e-7 that passes the exact collinearity check but
    # loses every triangle to the super-triangle, at every attempt
    with pytest.raises(DegenerateGeometry, match="too thin") as info:
        delaunay_triangles([(0.1, 0.0), (0.5, 7e-7), (0.9, 3e-7)])
    assert "collinear" not in str(info.value)


@pytest.mark.parametrize("points, message", [
    ([(0, 0), (1, 0), (0, 1), (np.nan, 0.5)], r"point 3 is not finite: \(nan, 0.5\)"),
    ([(0, 0), (1, 0), (np.inf, 1), (0.2, 0.7)], r"point 2 is not finite"),
    ([(0, 0), (1, 0), (0, 1), (0, 0)], r"points 0 \(0.0, 0.0\) and 3 \(0.0, 0.0\) coincide$"),
    ([(-1e20, 0), (1, 0.5), (1 + 2 ** -52, 0.5), (0, 1)],
     r"points 1 \(1.0, 0.5\) and 2 \(1.0000000000000002, 0.5\) coincide once mapped"),
    (np.zeros((4, 3)), r"shape \(n, 2\), got \(4, 3\)"),
    ([0.1, 0.2, 0.3], r"shape \(n, 2\), got \(3,\)"),
    ([(-1e308, 0), (1e308, 1), (0, 2)], "wider range than a float holds"),
    # an exact tie, and the jitter would move points 0 and 3 past each other
    ([(0, 0), (1, 0), (0, 1), (1e-17, 0)],
     r"points 0 \(0.0, 0.0\) and 3 \(1e-17, 0.0\) lie too close for the jitter"),
], ids=["nan", "inf", "duplicate", "duplicate-once-mapped", "three-columns", "flat",
        "overflowing-span", "closer-than-the-jitter"])
def test_delaunay_triangles_rejects_bad_points(points, message):
    with pytest.raises(ValueError, match=message):
        delaunay_triangles(points)


def test_mapping_keeps_near_adjacent_points_apart():
    # the scale into the unit square is a power of two, so two adjacent
    # doubles in a set spanning 0.3 stay apart; dividing by the span
    # rounded 0.24 and the next double to one value
    line = [(0.0, 0.25), (0.24, 0.25), (np.nextafter(0.24, 1.0), 0.25), (0.3, 0.25)]
    # on their own they are refused as collinear, not as coinciding
    with pytest.raises(DegenerateGeometry, match="all points collinear$"):
        delaunay_triangles(line)
    points = line + [(0.1, 0.4)]
    tris = delaunay_triangles(points)
    assert sorted(set(tris.ravel().tolist())) == list(range(len(points)))
    with mock.patch("fillreduce.datagen._triangulate", reference_triangulate):
        assert _outcome(delaunay_triangles, points) == tris.tolist()
    # a set spanning [0, 1] from the origin maps to itself
    pts = np.random.default_rng(67).random((30, 2))
    pts[:2] = [(0.0, 0.5), (1.0, 0.0)]
    assert np.array_equal(_into_unit_square(pts), pts)
    assert np.array_equal(_into_unit_square(pts * 2.0 ** 40 - 3.0), pts)


def test_delaunay_triangles_small_inputs():
    assert delaunay_triangles([]).shape == (0, 3)
    assert delaunay_triangles([(5.0, -5.0)]).shape == (0, 3)
    assert delaunay_triangles([(3.0, 4.0), (-2.0, 7.0)]).shape == (0, 3)


def test_generate_delaunay_redraws_duplicate_points():
    # a draw with two equal points is thrown away and the next one used
    clean = np.random.default_rng(7).random((6, 2))
    repeated = clean.copy()
    repeated[4] = repeated[1]
    rng = mock.Mock()
    rng.random.side_effect = [repeated, clean]
    p = generate_delaunay(6, rng)
    assert rng.random.call_count == 2
    assert p.edges == delaunay_edges(clean)


def test_generate_delaunay_draws_again_when_delaunay_triangles_refuses():
    # a refused draw is thrown away and the graph of the next one returned
    real, calls = delaunay_triangles, []

    def refuse_first(points):
        calls.append(points)
        if len(calls) == 1:
            raise ValueError("refused")
        return real(points)

    with mock.patch("fillreduce.datagen.delaunay_triangles", refuse_first):
        p = generate_delaunay(12, np.random.default_rng(8))
    draws = np.random.default_rng(8)
    first, second = draws.random((12, 2)), draws.random((12, 2))
    assert len(calls) == 2
    assert np.array_equal(calls[0], first) and np.array_equal(calls[1], second)
    assert p.edges == delaunay_edges(second)


@pytest.mark.parametrize("n, seed", [(3, 0), (20, 1), (60, 2), (150, 3)])
def test_generate_delaunay_is_delaunay_triangles_of_its_draw(n, seed):
    tris = delaunay_triangles(np.random.default_rng(seed).random((n, 2)))
    expected = SparsityPattern(n, tris[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2))
    assert generate_delaunay(n, np.random.default_rng(seed)) == expected


def test_generate_delaunay_invariants():
    rng = np.random.default_rng(63)
    for n in (3, 10, 40):
        p = generate_delaunay(n, rng)
        assert p.n == n
        assert len(p.edges) <= 3 * n - 6
        assert connected(n, p.edges)


def test_generate_delaunay_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        generate_delaunay(2, np.random.default_rng(0))


def test_training_set_bounds_and_reproducibility():
    first = generate_training_set(10, 20, 30, np.random.default_rng(64))
    second = generate_training_set(10, 20, 30, np.random.default_rng(64))
    assert len(first) == 10
    assert all(20 <= p.n <= 30 for p in first)
    assert all(a.edges == b.edges for a, b in zip(first, second))
    assert all(connected(p.n, p.edges) for p in first)


def test_training_set_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_training_set(0, 10, 20, rng)
    with pytest.raises(ValueError):
        generate_training_set(5, 2, 20, rng)
    with pytest.raises(ValueError):
        generate_training_set(5, 30, 20, rng)
    with pytest.raises(ValueError, match=f"n_max <= {MAX_NODES}"):
        generate_training_set(5, 60, MAX_NODES + 1, rng)


def test_write_and_load_round_trip(tmp_path):
    patterns = generate_training_set(4, 10, 15, np.random.default_rng(65))
    manifest = write_training_set(patterns, tmp_path / "data")
    assert manifest.name == "manifest.csv"
    lines = manifest.read_text().strip().splitlines()
    assert lines[0] == "id,file,n,edges"
    assert len(lines) == 5
    loaded = load_training_set(tmp_path / "data")
    assert len(loaded) == 4
    for a, b in zip(patterns, loaded):
        assert a.n == b.n and a.edges == b.edges


def test_load_without_manifest_globs_sorted(tmp_path):
    patterns = generate_training_set(3, 10, 12, np.random.default_rng(66))
    write_training_set(patterns, tmp_path)
    (tmp_path / "manifest.csv").unlink()
    loaded = load_training_set(tmp_path)
    assert [p.edges for p in loaded] == [p.edges for p in patterns]
    with pytest.raises(FileNotFoundError):
        load_training_set(tmp_path / "nowhere")


def test_generate_delaunay_rejects_oversized_inputs_before_drawing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"exceed the supported {MAX_NODES}"):
        generate_delaunay(MAX_NODES + 1, rng)
    assert rng.bit_generator.state == state


def _outcome(triangulate, points):
    """The triangles as lists of three vertices, or the error raised: a
    degenerate set, or, from ``delaunay_triangles``, a refused one."""
    try:
        tris = triangulate(points)
    except (DegenerateGeometry, ValueError) as exc:
        return ("raises", type(exc).__name__, str(exc))
    if isinstance(tris, np.ndarray):
        assert tris.dtype.kind == "i" and tris.shape == (len(tris), 3)
        return tris.tolist()
    return [list(t) for t in tris]


@st.composite
def point_sets(draw) -> np.ndarray:
    """Random, cocircular (exact grid subsets), collinear and nearly
    coincident point sets, and points far outside the super-triangle, where
    a cavity can leave fewer or many more triangles than it removed."""
    kind = draw(st.sampled_from(["random", "grid", "collinear", "close", "far"]))
    if kind == "random":
        seed, n = draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(3, 80))
        return np.random.default_rng(seed).random((n, 2))
    if kind == "far":
        seed, n = draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(3, 30))
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, 2)) * 10.0 ** rng.integers(3, 10)
    if kind == "grid":
        k = draw(st.integers(2, 9))
        cells = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                              min_size=3, max_size=k * k, unique=True))
        return np.array(cells, dtype=np.float64) / (k - 1)
    if kind == "collinear":
        xs = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=20, unique=True))
        diagonal = draw(st.booleans())
        return np.array([(x, x if diagonal else 0.25) for x in xs])
    base = draw(st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 0.9)))
    steps = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=3, max_size=12, unique=True))
    return np.array([(base[0] + i * 1e-12, base[1] + j * 1e-12) for i, j in steps])


@settings(max_examples=500, deadline=None)
@given(point_sets())
def test_triangulation_matches_scalar_reference(points):
    # the same triangle list, in the same order, or the same exception
    assert _outcome(_triangulate, points) == _outcome(reference_triangulate, points)
    fast = _outcome(delaunay_triangles, points)
    with mock.patch("fillreduce.datagen._triangulate", reference_triangulate):
        assert fast == _outcome(delaunay_triangles, points)


@pytest.mark.parametrize("n", [300, 1000])
def test_large_triangulation_matches_scalar_reference(n):
    # larger than the strategy draws: thousands of cavities, order included
    points = np.random.default_rng(n).random((n, 2))
    tris = _triangulate(points)
    assert tris.tolist() == [list(t) for t in reference_triangulate(points)]
    # and it is a triangulation: 2n - 2 - h triangles for h hull vertices
    from scipy.spatial import ConvexHull
    assert len(tris) == 2 * n - 2 - len(ConvexHull(points).vertices)


def _edge_digest(p) -> str:
    text = "".join(f"{i} {j}\n" for i, j in sorted(p.edges))
    return hashlib.sha256(f"{p.n}\n{text}".encode()).hexdigest()


# sha256 of "n\n" plus one "i j" line per sorted edge, recorded with the
# scalar Bowyer-Watson loop
DELAUNAY_PINS = {
    (3, 0): "96d77f916a7b67f54b3da28713d0a601a814962eb1b6cceca5b778a0ff7c4079",
    (60, 1): "72e97b58e181a39536b6b2a9ac8f5e0f8448db7e54a20d67dc99c414d10e06da",
    (200, 2): "401ff53272485fde3e25a88a66bcdc950283e5fbefc0cf0d9ff3935194fa4872",
    (1000, 3): "7658fdcdf1a8de65f11724179b9a9e305f914e9f607898b0e335e4f12aa9a538",
    (2000, 4): "57ba0e320466bc007ac77f4ec06d8b76e20469149bd8d55d41557c30b75cd7ec",
}
TRAINING_SET_PIN = "0675d3b8fcd3d305c72424e6bdf3a268a8d4d4fc9471397a1a57481083dc4cdc"


@pytest.mark.parametrize("n, seed", sorted(DELAUNAY_PINS))
def test_generate_delaunay_golden(n, seed):
    p = generate_delaunay(n, np.random.default_rng(seed))
    assert _edge_digest(p) == DELAUNAY_PINS[n, seed]
    if n == 2000:
        assert len(p.edges) <= 3 * n - 6
        assert connected(n, p.edges)


def test_generate_training_set_golden():
    patterns = generate_training_set(6, 20, 90, np.random.default_rng(5))
    assert [p.n for p in patterns] == [67, 77, 21, 77, 53, 56]
    joined = "".join(_edge_digest(p) for p in patterns)
    assert hashlib.sha256(joined.encode()).hexdigest() == TRAINING_SET_PIN
