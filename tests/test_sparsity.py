import io
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (cycle_pattern, grid_pattern, path_pattern, patterns, random_pattern,
                      reference_load_matrix_market)
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
    # int() reads "1_0" as 10 and "\u0661" (Arabic-Indic one) as 1; the format has neither
    ("%%MatrixMarket matrix coordinate pattern general\n10 10 1\n1_0 1\n",
     "malformed entry line: '1_0 1'"),
    ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n\u0661 2\n",
     "malformed entry line: '\u0661 2'"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 1_0\n",
     "malformed entry line: '1 2 1_0'"),
    ("%%MatrixMarket matrix coordinate pattern general\n1_0 10 0\n", "malformed size line"),
    ("%%MatrixMarket matrix coordinate pattern general\n2 2 \u0660\n", "malformed size line"),
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


FIELD_WIDTH = {"pattern": 2, "real": 3, "integer": 3, "complex": 4}
SYMMETRIES = ["general", "symmetric", "skew-symmetric", "hermitian"]
BAD_INTS = ["1.0", "x", "1__0", "_1", "0x1", "1e2", "1_0", "\u0661", "\uff11"]
VALUES = ["1.5", "-2", "0", "+3", "nan", "-inf", "1e-300", "2E5", ".5"]
BAD_VALUES = ["abc", "1,5", "--1", "1e", "1__0", "0x1p3", "1_0", "\u0661.5"]


@st.composite
def matrix_market_texts(draw):
    """Coordinate files of every field and symmetry: entries spelled in the
    ways int() and float() accept (``+3``, ``07``, ``nan``), on and off the
    diagonal and repeated, with blank and comment lines between them; the
    declared count is sometimes off, and some lines are malformed: a wrong
    token count, a bad int or float (among them ``1_0`` and non-ASCII
    digits, which int() and float() accept but the format does not), or an
    index out of range."""
    field = draw(st.sampled_from(sorted(FIELD_WIDTH)))
    width = FIELD_WIDTH[field]
    n = draw(st.integers(0, 12))
    index = st.integers(1, n) if n else st.nothing()

    def int_token(i: int) -> str:
        s = str(i)
        return draw(st.sampled_from([s, "+" + s, "0" + s]))

    def entry() -> list[str]:
        kind = draw(st.sampled_from(["good"] * 12 + ["width", "int", "value", "range"]))
        if kind == "range" or (kind != "good" and not n):
            i, j = draw(st.sampled_from([(0, 1), (n + 1, 1), (1, n + 1), (-1, 1), (10 ** 30, 1)]))
        else:
            i, j = (draw(index), draw(index)) if n else (1, 1)
        tokens = [int_token(i), int_token(j)]
        tokens += [draw(st.sampled_from(VALUES)) for _ in range(width - 2)]
        if kind == "int":
            tokens[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_INTS))
        elif kind == "value" and width > 2:
            tokens[draw(st.integers(2, width - 1))] = draw(st.sampled_from(BAD_VALUES))
        elif kind == "width":
            tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["1"]
        return tokens

    lines = []
    entries = 0
    for _ in range(draw(st.integers(0, 3 * n + 2))):
        filler = draw(st.sampled_from(["", "  ", "\t", "% comment", "  % indented", None, None,
                                       None, None]))
        if filler is not None:
            lines.append(filler)
            continue
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(entry()))
        entries += 1
    count = max(0, entries + draw(st.sampled_from([0, 0, 0, -1, 1, -2])))
    symmetry = draw(st.sampled_from(SYMMETRIES))
    return "\n".join([f"%%MatrixMarket matrix coordinate {field} {symmetry}",
                      f"{n} {n} {count}", *lines]) + "\n"


@settings(max_examples=400, deadline=None)
@given(matrix_market_texts())
@example("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1\n2 3 +3\n3 1 x\n")
@example("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n3 1\n")
@example("%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2 3\n4 1\n")
@example("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 |\n2 1\n")
@example("%%MatrixMarket matrix coordinate integer general\n2 2 3\n1 2 7\n")
@example("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n3 x\n")
@example("%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n% c\n\n2 1 nan 1_0\n"
         "2 2 1 +3\n")
def test_loader_matches_reference_loop(text):
    # the same pattern, or a PatternError naming the same first bad line
    try:
        expected = reference_load_matrix_market(io.StringIO(text))
    except PatternError as exc:
        with pytest.raises(PatternError) as info:
            load_matrix_market(io.StringIO(text))
        assert str(info.value) == str(exc)
    else:
        assert load_matrix_market(io.StringIO(text)) == expected


def test_loaded_pattern_keeps_little_memory(tmp_path):
    # a frozenset of tuples kept 13.2 MB here
    path = tmp_path / "grid.mtx"
    write_matrix_market(grid_pattern(200), path)
    tracemalloc.start()
    try:
        p = load_matrix_market(path)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert p.num_edges == 2 * 200 * 199
    assert kept < 4 * 2 ** 20


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


@pytest.mark.parametrize("edges, bad", [
    ([(0, 1), (0, 5), (0.5, 1), (2, 2)], r"edge \(0, 5\) out of range for n=3"),
    ([(0, 1), (2, 2), (0, 5)], r"self-loop edge \(2, 2\)"),
    ([(1, 0), (0, "x"), (2, 2)], r"edge \(0, 'x'\) has a non-integer end"),
    ([(0, 1), (-1, 2)], r"edge \(-1, 2\) out of range"),
    ([(0, 1), (2, 10 ** 30)], r"edge \(2, 1000000000000000000000000000000\) out of range"),
    (np.array([[0, 1], [3, 1], [1, 1]]), r"edge \(3, 1\) out of range for n=3$"),
    (np.array([[0, 1], [1, 1], [3, 1]], dtype=np.uint8), r"self-loop edge \(1, 1\)"),
])
def test_pattern_names_the_first_bad_edge(edges, bad):
    with pytest.raises(PatternError, match=bad):
        SparsityPattern(3, edges)


def test_pattern_reads_pairs_of_any_form():
    expected = SparsityPattern(4, [(0, 1), (1, 2), (2, 3)])
    assert expected.edge_array.tolist() == [[0, 1, 2], [1, 2, 3]]
    assert not expected.edge_array.flags.writeable
    for edges in ([[1, 0], [2, 1], [3, 2], [0, 1]], ((i, i + 1) for i in range(3)),
                  [iter((0, 1)), iter((2, 1)), iter((3, 2))], np.array([[3, 2], [2, 1], [1, 0]]),
                  {(0, 1), (1, 2), (2, 3)}, np.array([[0, 1], [1, 2], [2, 3]], dtype=np.uint64)):
        p = SparsityPattern(4, edges)
        assert p == expected and hash(p) == hash(expected) and p.edges == expected.edges
    with pytest.raises(ValueError):
        SparsityPattern(4, [(0, 1, 2)])
    with pytest.raises(PatternError, match=r"must be in \[0, 2\*\*31\]"):
        SparsityPattern(2 ** 31 + 1)
    assert SparsityPattern(2 ** 31, [(0, 2 ** 31 - 1)]).edges == {(0, 2 ** 31 - 1)}


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
