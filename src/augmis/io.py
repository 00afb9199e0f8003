"""File formats: DIMACS-like graph files and the catalogue text format.

Graph files: optional ``c`` comment lines, one ``p edge <n> <m>`` header,
then ``m`` lines ``e <u> <v>`` with 1-based vertex ids.  The writer is
bit-exact: header first, edges ascending by (u, v), LF endings, no
comments, so equal graphs serialize to equal bytes.

Catalogue files: ``c`` header lines recording the vertex bound, filter
list and census, then one entry per line as ``<n> <code-hex> # <tag>``
where the hex is the canonical code bytes (self-describing: the code
decodes back to the graph).  Entries ascend by (n, code), the order
``enumerate_irreducible`` gives and the catalogue finder scans in.  The
parser checks every entry, that order and the census header, so a
truncated, reordered or edited catalogue is rejected.
"""

from __future__ import annotations

import os
from typing import Optional

from .canonical import canon_code, decode_code
from .graphs import MAX_VERTICES, Graph
from .irreducible import Catalog, CatalogEntry, _from_masks, is_irreducible
from .patterns import Pattern, is_free, parse_pattern

__all__ = [
    "GraphFormatError",
    "parse_dimacs",
    "format_dimacs",
    "read_graph",
    "write_graph",
    "parse_catalog",
    "format_catalog",
    "read_catalog",
    "write_catalog",
]


class GraphFormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        suffix = f" (line {line})" if line is not None else ""
        super().__init__(message + suffix)
        self.line = line


def parse_dimacs(text: str) -> Graph:
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError("duplicate problem line", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise GraphFormatError("malformed problem line", lineno)
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise GraphFormatError("non-numeric problem line", lineno)
            if n < 0 or m < 0:
                raise GraphFormatError("negative counts", lineno)
            if n > MAX_VERTICES:
                raise GraphFormatError(
                    f"{n} vertices exceed the cap of {MAX_VERTICES}",
                    lineno,
                )
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError("edge before problem line", lineno)
            if len(fields) != 3:
                raise GraphFormatError("malformed edge line", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError("non-numeric edge line", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError("vertex id out of range", lineno)
            if u == v:
                raise GraphFormatError("self-loop", lineno)
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in seen:
                raise GraphFormatError("duplicate edge", lineno)
            seen.add(key)
            edges.append(key)
        else:
            raise GraphFormatError(f"unknown line type {fields[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing problem line")
    if m is not None and len(edges) != m:
        raise GraphFormatError(
            f"header promises {m} edges, file has {len(edges)}"
        )
    return Graph(n, edges)


def format_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.num_edges}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges())]
    return "\n".join(lines) + "\n"


def read_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_dimacs(fh.read())


def write_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_dimacs(g))


def _format_census(census: dict[int, int]) -> str:
    return " ".join(f"{n}:{c}" for n, c in sorted(census.items())) or "-"


def format_catalog(cat: Catalog) -> str:
    filters = ",".join(str(f) for f in cat.filters) or "-"
    lines = [
        "c augmis catalog v1",
        f"c n_max {cat.max_vertices}",
        f"c filters {filters}",
        f"c census {_format_census(cat.census())}",
    ]
    per_size: dict[int, int] = {}
    for e in cat.entries:
        n = e.graph.graph.n
        per_size[n] = per_size.get(n, 0) + 1
        lines.append(f"{n} {e.code.hex()} # n{n}-{per_size[n]}")
    return "\n".join(lines) + "\n"


def _parse_census(fields: list[str], lineno: int) -> dict[int, int]:
    if fields == ["-"]:
        return {}
    census: dict[int, int] = {}
    for field in fields:
        size, sep, count = field.partition(":")
        try:
            n, c = int(size), int(count)
        except ValueError:
            raise GraphFormatError("malformed census header", lineno)
        if not sep or n in census:
            raise GraphFormatError("malformed census header", lineno)
        census[n] = c
    return census


def parse_catalog(text: str) -> Catalog:
    """Parse and validate a catalogue file.

    Every entry must decode, carry its canonical code, appear once,
    follow the previous entry in ascending (n, code) order, fit the
    ``n_max`` header, be irreducible and free of the header filters, and
    the per-size entry counts must equal the ``census`` header, so a
    truncated, reordered, stale or hand-edited file is rejected, never
    used.
    """
    n_max = None
    census = None
    filters: tuple[Pattern, ...] = ()
    entries: list[tuple[int, CatalogEntry]] = []
    last: Optional[tuple[int, bytes]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            fields = line.split()
            if len(fields) >= 3 and fields[1] == "n_max":
                try:
                    n_max = int(fields[2])
                except ValueError:
                    raise GraphFormatError("non-numeric n_max header", lineno)
            elif len(fields) >= 3 and fields[1] == "filters":
                if fields[2] != "-":
                    try:
                        filters = tuple(
                            parse_pattern(t) for t in fields[2].split(",")
                        )
                    except ValueError:
                        raise GraphFormatError("malformed filters header", lineno)
            elif len(fields) >= 3 and fields[1] == "census":
                census = _parse_census(fields[2:], lineno)
            continue
        fields = line.split()
        if len(fields) < 2:
            raise GraphFormatError("malformed catalog entry", lineno)
        try:
            n = int(fields[0])
            code = bytes.fromhex(fields[1])
        except ValueError:
            raise GraphFormatError("malformed catalog entry", lineno)
        try:
            size, adj, cols = decode_code(code)
            # ColoredBipartite refuses colour classes that are not independent
            h = _from_masks(size, adj, cols)
            canonical = canon_code(size, adj, cols)
        except ValueError:
            raise GraphFormatError("undecodable catalog code", lineno)
        if size != n:
            raise GraphFormatError("entry size disagrees with code", lineno)
        if canonical != code:
            raise GraphFormatError("catalog code is not canonical", lineno)
        # strictly ascending keys are distinct, so a repeat sorts too low
        if last is not None and (n, code) <= last:
            if (n, code) == last:
                raise GraphFormatError("duplicate catalog entry", lineno)
            raise GraphFormatError(
                "catalog entry out of ascending (n, code) order", lineno
            )
        last = (n, code)
        entries.append((lineno, CatalogEntry(code, h)))
    if n_max is None:
        raise GraphFormatError("catalog header missing n_max")
    if census is None:
        raise GraphFormatError("catalog header missing census")
    for lineno, e in entries:
        if e.graph.graph.n > n_max:
            raise GraphFormatError("catalog entry above n_max", lineno)
        if not is_irreducible(e.graph):
            raise GraphFormatError("catalog entry is not irreducible", lineno)
        if filters and not is_free(e.graph.graph, filters):
            raise GraphFormatError("catalog entry violates its filters", lineno)
    cat = Catalog(n_max, filters, tuple(e for _, e in entries))
    if cat.census() != census:
        raise GraphFormatError(
            f"census header {_format_census(census)} disagrees with the "
            f"entries {_format_census(cat.census())}"
        )
    return cat


def read_catalog(path: str) -> Catalog:
    with open(path, "r", encoding="ascii") as fh:
        return parse_catalog(fh.read())


def write_catalog(cat: Catalog, path: str) -> None:
    """Write ``cat`` to ``path`` atomically.

    The text goes to a temp file in the same directory, is synced, and
    is then renamed over ``path``, so a crash or a concurrent reader
    never sees a truncated catalogue.  The file gets the mode a plain
    ``open`` would give it (0o666 under the umask), not mkstemp's 0o600.
    """
    tmp = os.path.join(
        os.path.dirname(path) or ".", f".catalog-{os.urandom(8).hex()}.tmp"
    )
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(format_catalog(cat))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
