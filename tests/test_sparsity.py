import io
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_pattern, path_pattern, patterns, random_pattern
from fillreduce import (Ordering, OrderingError, PatternError, SparsityPattern,
                        count_fill, load_matrix_market, load_ordering,
                        min_degree_order, nnz_sym, write_matrix_market,
                        write_ordering)
from fillreduce.sparsity import MAX_NODES


def mm(text: str) -> str:
    return textwrap.dedent(text).lstrip()


def written(p: SparsityPattern) -> io.StringIO:
    """The pattern as Matrix Market text, ready to read back."""
    buf = io.StringIO()
    write_matrix_market(p, buf)
    buf.seek(0)
    return buf


def load_str(text: str) -> SparsityPattern:
    return load_matrix_market(io.StringIO(mm(text)))


def test_general_file_drops_diagonal_and_symmetrizes():
    p = load_str("""
        %%MatrixMarket matrix coordinate real general
        3 3 3
        1 1 2.0
        2 1 -1.0
        3 3 5.0
    """)
    assert p.n == 3
    assert p.edges == {(0, 1)}
    assert p.diagonal == {0, 2}


def test_symmetric_storage_expands_lower_triangle():
    p = load_str("""
        %%MatrixMarket matrix coordinate pattern symmetric
        3 3 1
        3 1
    """)
    assert p.edges == {(0, 2)}


def test_out_of_range_entry_rejected():
    with pytest.raises(PatternError, match="out of range"):
        load_str("""
            %%MatrixMarket matrix coordinate pattern general
            3 3 1
            4 1
        """)


def test_duplicates_and_both_triangles_merge():
    p = load_str("""
        %%MatrixMarket matrix coordinate integer general
        4 4 4
        1 2 7
        2 1 9
        1 2 3
        3 4 1
    """)
    assert p.edges == {(0, 1), (2, 3)}


def test_explicit_zero_counts_as_nonzero():
    p = load_str("""
        %%MatrixMarket matrix coordinate real general
        2 2 1
        1 2 0.0
    """)
    assert p.edges == {(0, 1)}


@pytest.mark.parametrize("text,snippet", [
    ("%%MatrixMarket matrix coordinate real\n2 2 0\n", "malformed MatrixMarket header"),
    ("%MatrixMarket matrix coordinate real general\n2 2 0\n", "malformed MatrixMarket header"),
    ("%%MatrixMarket matrix array real general\n2 2\n", "unsupported format"),
    ("%%MatrixMarket vector coordinate real general\n2 2 0\n", "unsupported object"),
    ("%%MatrixMarket matrix coordinate real general\n2 3 0\n", "non-square"),
    ("%%MatrixMarket matrix coordinate real general\n2 2\n", "malformed size line"),
    ("%%MatrixMarket matrix coordinate real general\n", "missing size line"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.0\n", "declared 2"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n", "expected 3 tokens"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 abc\n", "malformed entry"),
    ("", "empty file"),
])
def test_malformed_inputs_raise_descriptive_errors(text, snippet):
    with pytest.raises(PatternError, match=snippet):
        load_matrix_market(io.StringIO(text))


def test_declared_size_above_limit_rejected():
    # header-only files: loading allocates nothing per node either way
    header = "%%MatrixMarket matrix coordinate pattern symmetric\n{0} {0} 0\n"
    assert load_matrix_market(io.StringIO(header.format(MAX_NODES))).n == MAX_NODES
    for n in (MAX_NODES + 1, 1000000000):
        with pytest.raises(PatternError, match=f"declares {n} nodes, more than "
                                               f"the supported {MAX_NODES}"):
            load_matrix_market(io.StringIO(header.format(n)))


def test_comments_and_blank_lines_skipped():
    p = load_str("""
        %%MatrixMarket matrix coordinate pattern general
        % a comment

        3 3 1
        % another
        1 2
    """)
    assert p.edges == {(0, 1)}


def test_nnz_sym_examples():
    assert nnz_sym(SparsityPattern(3, [(0, 1)])) == 5
    assert nnz_sym(SparsityPattern(1, [])) == 1
    assert nnz_sym(cycle_pattern(4)) == 12


@settings(max_examples=100, deadline=None)
@given(patterns(max_n=20))
def test_round_trip_preserves_edges(p):
    assert load_matrix_market(written(p)) == p


@st.composite
def general_files(draw):
    """A general coordinate file with entries in both triangles, on the
    diagonal and repeated, and the symmetrized pattern it describes."""
    n = draw(st.integers(0, 12))
    index = st.integers(1, n) if n else st.nothing()
    entries = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    lines = [f"{i} {j} {k + 0.5}" for k, (i, j) in enumerate(entries)]
    text = "\n".join(["%%MatrixMarket matrix coordinate real general",
                      f"{n} {n} {len(entries)}", *lines]) + "\n"
    expected = SparsityPattern(n, [(i - 1, j - 1) for i, j in entries if i != j],
                               [i - 1 for i, j in entries if i == j])
    return text, expected


@settings(max_examples=100, deadline=None)
@given(general_files())
def test_symmetrization_idempotent(case):
    # loading A symmetrizes it; writing and re-loading the result is a fixpoint
    text, expected = case
    first = load_matrix_market(io.StringIO(text))
    assert first == expected
    assert load_matrix_market(written(first)) == first


def test_loader_agrees_with_scipy_on_written_patterns():
    from scipy.io import mmread

    rng = np.random.default_rng(3)
    for _ in range(5):
        p = random_pattern(rng, int(rng.integers(2, 12)))
        buf = written(p)
        coo = mmread(buf)
        ref = set()
        for i, j in zip(coo.row, coo.col):
            if i != j:
                ref.add((min(i, j), max(i, j)))
        assert ref == set(p.edges)


def test_pattern_validation():
    with pytest.raises(PatternError):
        SparsityPattern(3, [(0, 0)])
    with pytest.raises(PatternError):
        SparsityPattern(3, [(0, 3)])
    with pytest.raises(PatternError):
        SparsityPattern(-1)
    with pytest.raises(PatternError):
        SparsityPattern(2, [], diagonal=[2])
    # (i, j) and (j, i) are the same edge
    assert SparsityPattern(3, [(0, 1), (1, 0)]).edges == {(0, 1)}


@pytest.mark.parametrize("edges, diagonal, bad", [
    ([(0.5, 1)], [], r"edge \(0\.5, 1\)"),
    ([(0, 1.0)], [], r"edge \(0, 1\.0\)"),
    ([(0, "2")], [], r"edge \(0, '2'\)"),
    ([(0, np.float64(1))], [], r"edge \(0, .*1\.0\)"),
    ([(0, 1)], [2.0], r"diagonal index 2\.0"),
])
def test_pattern_rejects_non_integer_nodes(edges, diagonal, bad):
    # a stored float end would fail later, in min_degree_order, as a TypeError
    with pytest.raises(PatternError, match=bad):
        SparsityPattern(3, edges, diagonal)


def test_pattern_accepts_numpy_ints_as_python_ints():
    p = SparsityPattern(3, np.array([[1, 0], [1, 2]]), np.array([2], dtype=np.int32))
    assert p == SparsityPattern(3, [(0, 1), (1, 2)], [2])
    assert {type(v) for e in p.edges for v in e} | {type(d) for d in p.diagonal} == {int}
    assert list(min_degree_order(p)) == [0, 1, 2]


def test_ordering_validation_and_positions():
    o = Ordering([2, 0, 1])
    assert list(o) == [2, 0, 1]
    assert o.positions() == [1, 2, 0]
    assert o[0] == 2 and len(o) == 3
    for bad in ([0, 0, 1], [0, 2], [1, 2, 3]):
        with pytest.raises(OrderingError):
            Ordering(bad)


def test_ordering_rejects_non_integral_entries():
    # int() would truncate the first and third to [0, 1, 2], the natural order
    for bad in ([0, 1.7, 2.2], [0.0, 1.0, 2.0], np.array([0.5, 1.5, 2.5]), ["0", "1", "2"]):
        with pytest.raises(OrderingError, match="must be integers"):
            Ordering(bad)
    with pytest.raises(OrderingError, match="must be integers"):
        count_fill(path_pattern(3), [0.5, 1.5, 2.5])
    for good in (np.array([2, 0, 1]), [np.int32(2), np.int64(0), 1]):
        assert Ordering(good).perm == (2, 0, 1)
        assert {type(v) for v in Ordering(good)} == {int}


def test_ordering_file_round_trip(tmp_path):
    o = Ordering([3, 1, 0, 2])
    path = tmp_path / "perm.txt"
    write_ordering(o, path)
    assert path.read_text() == "3\n1\n0\n2\n"
    assert load_ordering(path) == o
    with pytest.raises(OrderingError):
        load_ordering(io.StringIO("0\nx\n"))
