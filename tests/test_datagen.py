import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_circle_det, is_delaunay
from fillreduce import (PatternError, generate_delaunay, generate_training_set,
                        load_training_set, write_training_set)
from fillreduce.datagen import DegenerateGeometry, _triangulate
from fillreduce.sparsity import MAX_NODES


def edge_set(tris) -> set[tuple[int, int]]:
    """The triangles' edges, each once as (min, max)."""
    return {(int(min(u, v)), int(max(u, v)))
            for a, b, c in tris for u, v in ((a, b), (b, c), (a, c))}


def delaunay_edges(points) -> set[tuple[int, int]]:
    return edge_set(_triangulate(points))


def scipy_edges(points) -> set[tuple[int, int]]:
    from scipy.spatial import Delaunay as SciDelaunay
    return edge_set(SciDelaunay(points).simplices.tolist())


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
    tris = _triangulate(pts)
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
        for a, b, c in _triangulate(pts):
            for v in range(n):
                if v in (a, b, c):
                    continue
                assert in_circle_det(pts[a], pts[b], pts[c], pts[v]) <= 1e-9


def test_matches_scipy_triangulation():
    # uniform draws: small ones, 320 of the hull sweep's (n = 60-200) and two large
    rng = np.random.default_rng(62)
    draws = [rng.random((int(rng.integers(5, 60)), 2)) for _ in range(10)]
    draws += [np.random.default_rng([s, 99]).random((60 + 20 * (s % 8), 2)) for s in range(320)]
    draws += [np.random.default_rng([n, 99]).random((n, 2)) for n in (1000, 2000)]
    for points in draws:
        assert delaunay_edges(points) == scipy_edges(points), len(points)


def _training_set_draws(seed, count=200, n_min=60, n_max=200):
    """``generate_training_set(count, n_min, n_max, default_rng(seed))`` and
    the points of each of its graphs."""
    draws = []

    def recording(points):
        tris = _triangulate(points)
        draws.append(points)
        return tris

    with mock.patch("fillreduce.datagen._triangulate", recording):
        patterns = generate_training_set(count, n_min, n_max, np.random.default_rng(seed))
    return patterns, draws


# every draw of the sweep default_rng([s, 99]).random((60 + 20 * (s % 8), 2)),
# s < 4000, on which a finite super-triangle loses a hull edge
HULL_SWEEP_SEEDS = (13, 405, 1387, 1412, 1571, 2773, 2780, 3398, 3552)


@pytest.mark.parametrize("case", [f"rng-{s}-99" for s in HULL_SWEEP_SEEDS]
                         + ["gen-seed-6", "gen-seed-9", "gen-1000-2000-seed-0"])
def test_hull_edges_kept(case):
    # each draw lost one convex-hull edge to a finite super-triangle: the
    # lost triangle's circumcircle reached one of its vertices
    if case.startswith("rng"):
        seed = int(case.split("-")[1])
        points = np.random.default_rng([seed, 99]).random((60 + 20 * (seed % 8), 2))
        assert delaunay_edges(points) == scipy_edges(points)
        return
    seed, graph, n, sizes = {"gen-seed-6": (6, 162, 78, (200, 60, 200)),
                             "gen-seed-9": (9, 138, 185, (200, 60, 200)),
                             "gen-1000-2000-seed-0": (0, 7, 1016, (10, 1000, 2000))}[case]
    patterns, draws = _training_set_draws(seed, *sizes)
    assert patterns[graph].n == n
    assert patterns[graph].edges == scipy_edges(draws[graph])


def test_thin_set_keeps_its_triangle():
    # a triangle of area 2.2e-7 whose circumcircle (radius 1.1e5) reaches
    # past any finite super-triangle of the unit square
    assert _triangulate([(0.1, 0.0), (0.5, 7e-7), (0.9, 3e-7)]).tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("points", [
    [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9), (0.3, 0.3)],
    [(0.0, 0.25), (0.1, 0.25), (0.2, 0.25), (0.3, 0.25)],
    [(0.0, 0.25), (0.24, 0.25), (np.nextafter(0.24, 1.0), 0.25), (0.3, 0.25)],
    [(1 / 6, 0.5), (0.5, 5 / 6), (1 / 3, 2 / 3)],
], ids=["diagonal", "horizontal", "adjacent-doubles", "collinear-before-rounding"])
def test_collinear_sets_are_refused(points):
    # no triangulation at all: the third point on the line is an exact tie,
    # or, where rounding moved it off the line, makes a triangle too thin
    # for its rounding bound to hold
    with pytest.raises(DegenerateGeometry):
        _triangulate(points)


def test_near_tie_is_decided_exactly():
    # a subset of the 4 x 4 grid with spacing 1/3, which rounds: points 0-3
    # are cocircular in the plane but not as doubles, and a decision taken in
    # floating point alone left a point inside a circumcircle
    third, two_thirds = 1 / 3, 2 / 3
    points = [(third, third), (two_thirds, 0.0), (1.0, 1.0), (third, two_thirds), (0.0, third)]
    tris = _triangulate(points)
    assert len(tris) == 4 and is_delaunay(points, tris)


def test_triangulate_small_inputs():
    # fewer than three points: only triangles with a super vertex, none kept
    for points in ([], [(0.5, 0.5)], [(0.3, 0.4), (0.7, 0.2)]):
        tris = _triangulate(points)
        assert tris.dtype.kind == "i" and tris.shape == (0, 3)


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


def test_generate_delaunay_draws_again_when_triangulate_refuses():
    # a draw it cannot decide is thrown away and the graph of the next one returned
    real, calls = _triangulate, []

    def refuse_first(points):
        calls.append(points)
        if len(calls) == 1:
            raise DegenerateGeometry("refused")
        return real(points)

    with mock.patch("fillreduce.datagen._triangulate", refuse_first):
        p = generate_delaunay(12, np.random.default_rng(8))
    draws = np.random.default_rng(8)
    first, second = draws.random((12, 2)), draws.random((12, 2))
    assert len(calls) == 2
    assert np.array_equal(calls[0], first) and np.array_equal(calls[1], second)
    assert p.edges == scipy_edges(second)


def test_generate_delaunay_draws_again_after_a_cocircular_draw():
    square = np.array([(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75)])
    with pytest.raises(DegenerateGeometry):
        _triangulate(square)
    clean = np.random.default_rng(9).random((4, 2))
    rng = mock.Mock()
    rng.random.side_effect = [square, clean]
    p = generate_delaunay(4, rng)
    assert rng.random.call_count == 2
    assert p.edges == scipy_edges(clean)


@pytest.mark.parametrize("n, seed", [(3, 0), (20, 1), (60, 2), (150, 3)])
def test_generate_delaunay_is_the_triangulation_of_its_draw(n, seed):
    p = generate_delaunay(n, np.random.default_rng(seed))
    assert p.n == n and p.edges == scipy_edges(np.random.default_rng(seed).random((n, 2)))


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


@pytest.mark.parametrize("text, error", [
    (b"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 x\n",
     "malformed entry line: '2 x'"),
    (b"%%MatrixMarket matrix coordinate pattern general\n% caf\xd1\n2 2 1\n2 1\n",
     "'utf-8' codec can't decode byte 0xd1"),
], ids=["entry", "utf-8"])
def test_load_names_the_file_that_fails(tmp_path, text, error):
    # both used to come without the file's name, the second as a UnicodeDecodeError
    write_training_set(generate_training_set(3, 10, 12, np.random.default_rng(66)), tmp_path)
    bad = tmp_path / "delaunay_00001.mtx"
    bad.write_bytes(text)
    with pytest.raises(PatternError) as info:
        load_training_set(tmp_path)
    assert str(info.value).startswith(f"{bad}: {error}")


def test_generate_delaunay_rejects_oversized_inputs_before_drawing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"exceed the supported {MAX_NODES}"):
        generate_delaunay(MAX_NODES + 1, rng)
    assert rng.bit_generator.state == state


@st.composite
def point_sets(draw) -> tuple[str, np.ndarray]:
    """Uniform draws, subsets of a k x k grid with spacing 1/(k - 1) (cocircular
    and collinear points, exactly so where the spacing is a power of two and
    within rounding elsewhere) and collinear sets."""
    kind = draw(st.sampled_from(["uniform", "grid", "collinear"]))
    if kind == "uniform":
        seed, n = draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(3, 80))
        return kind, np.random.default_rng(seed).random((n, 2))
    if kind == "grid":
        k = draw(st.integers(2, 9))
        cells = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                              min_size=3, max_size=k * k, unique=True))
        return kind, np.array(cells, dtype=np.float64) / (k - 1)
    xs = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=20, unique=True))
    diagonal = draw(st.booleans())
    return kind, np.array([(x, x if diagonal else 0.25) for x in xs])


@settings(max_examples=500, deadline=None)
@given(point_sets())
def test_triangulation_matches_scipy(case):
    # a uniform draw gets scipy's triangulation; a collinear set has none; a
    # grid subset raises on a tie or gets a triangulation that is exactly
    # Delaunay (one without a tie has only one)
    kind, points = case
    if kind == "uniform":
        assert delaunay_edges(points) == scipy_edges(points)
    elif kind == "collinear":
        with pytest.raises(DegenerateGeometry):
            _triangulate(points)
    else:
        try:
            tris = _triangulate(points)
        except DegenerateGeometry:
            return
        assert is_delaunay(points, tris)


def test_cavity_that_is_not_a_disk_is_refused():
    # here no triangle holds the second point, so its cavity is empty
    with mock.patch("fillreduce.datagen._column", lambda *args: (0.0, 0.0, 1.0, 0.0, 0.0)):
        with pytest.raises(DegenerateGeometry, match="not a disk"):
            _triangulate([(0.2, 0.3), (0.6, 0.7)])


@pytest.mark.parametrize("n", [300, 1000])
def test_large_triangulation_matches_scipy(n):
    points = np.random.default_rng(n).random((n, 2))
    tris = _triangulate(points)
    assert edge_set(tris.tolist()) == scipy_edges(points)
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
