"""File formats: .cay multiplication tables and graph serialization.

A .cay file is plain text: line 1 holds the order n, then n lines of n
space-separated 0-based element indices (row i, column j holds the product
i*j).  Import runs the full validator, as construction does, so a .cay
file from any source cannot smuggle in a non-group.
"""

from __future__ import annotations

import os

from .cayley import CayleyTable, validate
from .canon import canonical_order
from .errors import CayParseError
from .graphs import NcGraph


def format_group(g: CayleyTable) -> str:
    lines = [str(g.order)]
    for i in range(g.order):
        lines.append(" ".join(str(int(v)) for v in g.table[i]))
    return "\n".join(lines) + "\n"


def export_group(g: CayleyTable, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_group(g))


def parse_group(text: str, descriptor: str = None) -> CayleyTable:
    """Parse .cay text; errors carry 1-based line numbers."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise CayParseError("line 1: expected the group order")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise CayParseError(f"line 1: order is not an integer: {lines[0].strip()!r}")
    if n < 1:
        raise CayParseError(f"line 1: order must be >= 1, got {n}")
    rows = []
    for i in range(n):
        lineno = i + 2
        if i + 1 >= len(lines):
            raise CayParseError(f"line {lineno}: missing row {i} of {n}")
        tokens = lines[i + 1].split()
        if len(tokens) != n:
            raise CayParseError(
                f"line {lineno}: expected {n} entries, found {len(tokens)}"
            )
        row = []
        for j, tok in enumerate(tokens):
            try:
                row.append(int(tok))
            except ValueError:
                raise CayParseError(
                    f"line {lineno}: entry {j} is not an integer: {tok!r}"
                )
        rows.append(row)
    for extra in range(n + 1, len(lines)):
        if lines[extra].strip():
            raise CayParseError(f"line {extra + 1}: unexpected content after the table")
    return validate(rows, descriptor=descriptor)


def import_group(path: str) -> CayleyTable:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_group(text, descriptor=f"imported({name})")


def graph_to_text(graph: NcGraph) -> str:
    """Edge list under the canonical vertex order: "nv ne" header, then one
    "u v" line per edge with 0-based canonical positions, u < v, sorted."""
    order = canonical_order(graph)
    position = {v: k for k, v in enumerate(order)}
    edges = sorted(
        tuple(sorted((position[i], position[j])))
        for i, j in graph.edges()
    )
    lines = [f"{graph.num_vertices} {graph.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def graph_to_json(graph: NcGraph) -> dict:
    """JSON form of the graph keeping parent element labels: entry k of
    "vertices" is the parent element index at canonical position k."""
    order = canonical_order(graph)
    position = {v: k for k, v in enumerate(order)}
    edges = sorted(
        tuple(sorted((position[i], position[j])))
        for i, j in graph.edges()
    )
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "parent_descriptor": graph.parent_descriptor,
        "parent_order": graph.parent_order,
        "parent_center_size": graph.parent_center_size,
        "vertices": [graph.vertices[v] for v in order],
        "edges": [list(e) for e in edges],
    }
