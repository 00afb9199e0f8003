from itertools import permutations

import pytest
from hypothesis import given

from augmis import Graph, Pattern, complete_bipartite, enumerate_irreducible
from augmis.graphs import bits
import augmis.io as io_mod
from augmis.canonical import _pack, decode_code
from augmis.io import (
    GraphFormatError,
    format_catalog,
    format_dimacs,
    parse_catalog,
    parse_dimacs,
    read_catalog,
    read_graph,
    write_catalog,
    write_graph,
)
from conftest import graphs_st


@given(graphs_st(max_n=10))
def test_dimacs_round_trip(g):
    assert parse_dimacs(format_dimacs(g)) == g


def test_dimacs_exact_bytes():
    g = complete_bipartite(2, 2)
    assert format_dimacs(g) == "p edge 4 4\ne 1 3\ne 1 4\ne 2 3\ne 2 4\n"
    assert format_dimacs(Graph(3)) == "p edge 3 0\n"


def test_dimacs_accepts_comments_and_blanks():
    g = parse_dimacs("c hello\n\np edge 2 1\nc mid\ne 1 2\n")
    assert g == Graph(2, [(0, 1)])


@pytest.mark.parametrize(
    "text,line",
    [
        ("e 1 2\n", 1),  # edge before header
        ("p edge 2 1\ne 1 3\n", 2),  # out of range
        ("p edge 2 1\ne 1 1\n", 2),  # self-loop
        ("p edge 2 2\ne 1 2\ne 2 1\n", 3),  # duplicate
        ("p edge x 1\n", 1),  # non-numeric
        ("p edge 2 1\nq 1 2\n", 2),  # unknown type
        ("p edge 2 1\np edge 2 1\n", 2),  # second header
    ],
)
def test_dimacs_errors_carry_line_numbers(text, line):
    with pytest.raises(GraphFormatError) as err:
        parse_dimacs(text)
    assert err.value.line == line


def test_dimacs_edge_count_mismatch():
    with pytest.raises(GraphFormatError):
        parse_dimacs("p edge 3 2\ne 1 2\n")


def test_graph_file_round_trip(tmp_path):
    g = complete_bipartite(2, 3)
    path = str(tmp_path / "g.col")
    write_graph(g, path)
    assert read_graph(path) == g


def test_catalog_round_trip():
    cat = enumerate_irreducible(5, (Pattern("P", (8,)), Pattern("K", (3, 3))))
    text = format_catalog(cat)
    back = parse_catalog(text)
    assert back.max_vertices == cat.max_vertices
    assert back.filters == cat.filters
    assert back.entries == cat.entries
    # serialization is canonical: dumping the parsed catalogue is identical
    assert format_catalog(back) == text


def test_catalog_header_contents():
    cat = enumerate_irreducible(3)
    text = format_catalog(cat)
    assert "c n_max 3" in text
    assert "c filters -" in text
    assert "c census 1:1 3:1" in text


def test_catalog_rejects_corrupt_entries():
    cat = enumerate_irreducible(3)
    text = format_catalog(cat)
    with pytest.raises(GraphFormatError):
        parse_catalog(text.replace("3 ", "5 ", 1))
    with pytest.raises(GraphFormatError):
        parse_catalog("1 0101 # x\n")  # missing header


HEADER5 = "c augmis catalog v1\nc n_max 5\nc filters -\nc census 1:1 3:1 5:3\n"


def test_catalog_malformed_code_is_a_format_error():
    # the code promises 7 vertices but carries no adjacency bytes
    with pytest.raises(GraphFormatError) as err:
        parse_catalog(HEADER5 + "7 07ab # x\n")
    assert err.value.line == 5


def test_catalog_census_must_match_entries():
    with pytest.raises(GraphFormatError, match="census"):
        parse_catalog(HEADER5)  # header promises 5 entries, body has none
    text = format_catalog(enumerate_irreducible(5))
    truncated = "".join(text.splitlines(keepends=True)[:-1])
    with pytest.raises(GraphFormatError, match="census"):
        parse_catalog(truncated)
    no_census = "".join(
        line for line in text.splitlines(keepends=True)
        if not line.startswith("c census")
    )
    with pytest.raises(GraphFormatError, match="census"):
        parse_catalog(no_census)
    with pytest.raises(GraphFormatError) as err:
        parse_catalog(text.replace("c census 1:1", "c census 1:x"))
    assert err.value.line == 4


def test_catalog_rejects_duplicate_entries():
    text = format_catalog(enumerate_irreducible(5))
    last = text.splitlines()[-1]
    text = text.replace("5:3", "5:4") + last + "\n"
    with pytest.raises(GraphFormatError, match="duplicate") as err:
        parse_catalog(text)
    assert err.value.line == len(text.splitlines())


def test_catalog_rejects_entries_above_n_max():
    text = format_catalog(enumerate_irreducible(5))
    with pytest.raises(GraphFormatError, match="above n_max"):
        parse_catalog(text.replace("c n_max 5", "c n_max 3"))


def _relabelled_codes(code):
    """Packed codes of the relabellings that keep the colour sequence."""
    n, masks, cols = decode_code(code)
    out = set()
    for perm in permutations(range(n)):
        if any(cols[perm[v]] != cols[v] for v in range(n)):
            continue
        rows = [0] * n
        for v in range(n):
            for u in bits(masks[v]):
                if perm[u] < perm[v]:
                    rows[perm[v]] |= 1 << perm[u]
        out.add(_pack(n, list(cols), tuple(rows)))
    return out - {code}


def test_catalog_rejects_non_canonical_codes():
    cat = enumerate_irreducible(5)
    text = format_catalog(cat)
    entry = next(e for e in cat.entries if _relabelled_codes(e.code))
    bad = min(_relabelled_codes(entry.code))
    with pytest.raises(GraphFormatError, match="not canonical"):
        parse_catalog(text.replace(entry.code.hex(), bad.hex()))
    with pytest.raises(GraphFormatError, match="not canonical"):
        parse_catalog(text.replace(entry.code.hex(), entry.code.hex() + "00"))


def test_write_catalog_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "cat.txt"
    cat3 = enumerate_irreducible(3)
    write_catalog(cat3, str(path))
    before = path.read_bytes()

    def crash(fd):
        raise OSError("disk full")

    monkeypatch.setattr(io_mod.os, "fsync", crash)
    with pytest.raises(OSError):
        write_catalog(enumerate_irreducible(5), str(path))
    # the old file is intact and no temp file is left behind
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cat.txt"]
    monkeypatch.undo()
    write_catalog(enumerate_irreducible(5), str(path))
    assert read_catalog(str(path)).census() == {1: 1, 3: 1, 5: 3}
