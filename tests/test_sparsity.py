import io
import re
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

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
from fillreduce import sparsity
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
    assert p.diagonal_array.tolist() == [0, 2]


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
BAD_INTS = ["1.0", "x", "1__0", "_1", "0x1", "1e2", "1_0", "\u0661", "\uff11", "+", "1-2", "nan",
            "inf", "1d5", "%1"]
VALUES = ["1.5", "-2", "0", "+3", "nan", "-inf", "1e-300", "2E5", ".5", "infinity", "-Infinity",
          "5.", "1e999"]
# numpy's text parse also reads "nan(1)"; it stops inside the others
BAD_VALUES = ["abc", "1,5", "--1", "1e", "1__0", "0x1p3", "1_0", "\u0661.5", "1.5.5", "1d5",
              "nan(1)", "inf5", "."]
# str.split()'s whitespace, \x1c-\x1f too, which C's isspace() is not; a
# non-ASCII one makes its line malformed
SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", " \r", "\x1c", "\x1d", "\x1e", "\x1f", "\u2003"]


@st.composite
def matrix_market_texts(draw):
    """Coordinate files of every field and symmetry: entries spelled in the
    ways int() and float() accept (``+3``, ``07``, ``nan``, ``infinity``),
    on and off the diagonal and repeated, split by any of str.split()'s
    whitespace, with blank and comment lines between them and sometimes no
    final newline; the declared count is sometimes off, and some lines are
    malformed: a wrong token count, a bad int or float (among them ``1_0``
    and non-ASCII digits, which int() and float() accept but the format does
    not), or an index out of range."""
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
        filler = draw(st.sampled_from(["", "  ", "\t", "\x0c", "\xa0", "% comment", "  % indented",
                                       "%1 2", "\x1f%%", "% caf\xe9", None, None, None, None,
                                       None, None]))
        if filler is not None:
            lines.append(filler)
            continue
        sep = draw(st.sampled_from(SEPARATORS))
        lines.append(draw(st.sampled_from(["", " ", "\x1c", "\xa0"])) + sep.join(entry()))
        entries += 1
    count = max(0, entries + draw(st.sampled_from([0, 0, 0, -1, 1, -2])))
    symmetry = draw(st.sampled_from(SYMMETRIES))
    return "\n".join([f"%%MatrixMarket matrix coordinate {field} {symmetry}",
                      f"{n} {n} {count}", *lines]) + draw(st.sampled_from(["\n", ""]))


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


@settings(max_examples=150, deadline=None)
@given(matrix_market_texts(), st.sampled_from(["\n", "\r\n", "\r"]))
@example("%%MatrixMarket matrix coordinate real general\r\n3 3 2\r\n1 2 1.5\r\n3 1 -inf\r\n", "\n")
@example("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n", "\r")
@example("%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1\x0b2\n3\x1c1\x1f\n"
         "\x0c2\x1d\x1e3", "\n")
@example("%%MatrixMarket matrix coordinate integer general\n3 3 2\n1 2 7\n% 2 3 1\n  %x\n"
         "\n2 3 +1", "\n")
@example("%%MatrixMarket matrix coordinate complex general\n2 2 3\n1 2 nan -inf\n"
         "2 1 infinity .5\n1 1 2E5 -0\n", "\r\n")
@example("%%MatrixMarket matrix coordinate complex general\n2 2 3\n1 2 nan -inf\n"
         "2 1 infinity .5\n1 1 2E5 1e\n", "\n")
@example("%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 1.5\n1 2 1.5.5\n", "\n")
@example("%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 0x1p3\n1 2 1\n", "\n")
@example("%%MatrixMarket matrix coordinate real general\n2 2 2\n2 1 .5\n1 2 1d5\n", "\r")
@example("%%MatrixMarket matrix coordinate real general\n2 2 1\n2 1 nan(1)\n", "\n")
@example("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n% 1 2\n1 2\n2 %1\n", "\n")
def test_loader_matches_reference_loop_on_disk(text, line_end):
    # a file on disk ends lines at "\r\n" and a lone "\r" too; StringIO
    # keeps both, so there "\r" is a space
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mtx"
        path.write_bytes(text.replace("\n", line_end).encode("utf-8"))
        try:
            expected = reference_load_matrix_market(path)
        except PatternError as exc:
            with pytest.raises(PatternError) as info:
                load_matrix_market(path)
            assert str(info.value) == str(exc)
        else:
            assert load_matrix_market(path) == expected


def test_plain_text_never_takes_the_loop(tmp_path, monkeypatch):
    # every file this package writes is plain; comments before the size line
    # are read with the header, so they leave the entries plain too
    monkeypatch.setattr(sparsity, "_entry_loop", lambda *args: pytest.fail("the loop ran"))
    p = grid_pattern(6)
    write_matrix_market(p, tmp_path / "written.mtx")
    assert load_matrix_market(tmp_path / "written.mtx") == p
    expected = SparsityPattern(3, [(0, 1), (0, 2)])
    for name, data in {
        "real.mtx": b"%%MatrixMarket matrix coordinate real general\n% a comment\n3 3 2\n"
                    b"1 2 0.12345678901234567\n3 1 -1.2345678901234567e-300\n",
        "crlf.mtx": b"%%MatrixMarket matrix coordinate pattern general\r\n3 3 2\r\n1 2\r\n3 1\r\n",
        "vf.mtx": b"%%MatrixMarket matrix coordinate pattern general\n3 3 2\n"
                  b"1\x0b2\n\x0c3\x0c1\x0b\n",
    }.items():
        (tmp_path / name).write_bytes(data)
        assert load_matrix_market(tmp_path / name) == expected


def test_comment_among_entries_takes_the_loop_to_the_same_pattern(monkeypatch):
    plain = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1.5\n3 1 -2\n2 2 7\n"
    commented = plain.replace("-2\n", "-2\n% between entries\n")
    loop, calls = sparsity._entry_loop, []
    monkeypatch.setattr(sparsity, "_entry_loop", lambda *args: calls.append(args) or loop(*args))
    expected = load_matrix_market(io.StringIO(plain))
    assert not calls
    assert load_matrix_market(io.StringIO(commented)) == expected
    assert len(calls) == 1
    assert expected == SparsityPattern(3, [(0, 1), (0, 2)], [1])


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


def test_loaded_diagonal_keeps_little_memory(tmp_path):
    # the 400x400 grid with all 160000 diagonal entries stored: a loop over
    # lines and tokens peaked at 144 MiB and kept 15.3 MiB, a frozenset of
    # ints for the diagonal; parsed from the bytes, 39.2 MiB and 3.0 MiB
    n = 400 * 400
    p = SparsityPattern(n, grid_pattern(400).edge_array.T, np.arange(n))
    path = tmp_path / "grid.mtx"
    write_matrix_market(p, path)
    tracemalloc.start()
    try:
        loaded = load_matrix_market(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == p
    assert peak < 48 * 2 ** 20
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
    assert {type(v) for e in p.edges for v in e} == {int}
    assert list(min_degree_order(p)) == [0, 1, 2]


def test_pattern_keeps_the_diagonal_as_an_array():
    p = SparsityPattern(4, [(0, 1)], [3, 1, 3])
    assert p.diagonal_array.tolist() == [1, 3] and p.diagonal_array.dtype == np.int32
    assert not p.diagonal_array.flags.writeable
    for nodes in (np.array([3, 1, 1]), np.array([1, 3], dtype=np.uint8), iter((3, 1))):
        q = SparsityPattern(4, [(0, 1)], nodes)
        assert q == p and hash(q) == hash(p)
    assert p != SparsityPattern(4, [(0, 1)], [1])
    with pytest.raises(PatternError, match=r"diagonal index 4 out of range for n=4$"):
        SparsityPattern(4, [], np.array([1, 4, -1]))
    with pytest.raises(PatternError, match=r"diagonal index -1 out of range"):
        SparsityPattern(4, [], np.array([1, -1, 4]))


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


@pytest.mark.parametrize("line", ["1.0", "1_0", "\u0661", "\uff11"])
def test_ordering_file_refuses_what_the_format_has_not(line):
    # int() reads "1_0" as 10 and "\u0661" (Arabic-Indic one) as 1
    text = "\n".join(map(str, range(11))).replace("1\n", f"{line}\n", 1)
    with pytest.raises(OrderingError, match=re.escape(f"malformed ordering line: {line!r}")):
        load_ordering(io.StringIO(text))
