"""File formats: .cay multiplication tables and graph serialization.

A .cay file is plain ASCII text: line 1 holds the order n, then n lines of
n whitespace-separated 0-based element indices (row i, column j holds the
product i*j).  Lines are those of ``str.splitlines``, so ``\\r\\n``, ``\\r``
and form feeds end a line, and blank lines may follow the table.  Every
token, the order included, is a string of 1 to 18 ASCII decimal digits, so
it always fits an int64; a sign, an underscore, a non-ASCII digit or a
longer token is a ``CayParseError`` naming its line and entry.

The rows are parsed by one numpy kernel over the bytes of the text, a block
of about ``_BLOCK_BYTES`` of text at a time, straight into an n-by-n int64
table.  Per block, a 256-entry byte-class table gives the digit and
whitespace masks, token boundaries come from neighbouring mask bytes,
per-row token counts from ``searchsorted`` against the newline positions,
and values from one pass per digit position.  Working in blocks keeps every
temporary a small multiple of one block: masks over the whole text, or an
int64 array per byte, would cost several times the table itself.  When a
block fails a check, a walk over its rows raises the error of the first bad
row; the walk never builds a table.

Import runs the full validator, as construction does, so a .cay file from
any source cannot smuggle in a non-group.
"""

from __future__ import annotations

import os

import numpy as np

from .cayley import CayleyTable, _cleared_on_error, validate
from .canon import canonical_order
from .errors import CayParseError, InternalInconsistency
from .graphs import NcGraph

# Text per kernel block, in bytes; every temporary scales with it.
_BLOCK_BYTES = 1 << 20
# 10**18 - 1 is the widest digit string below 2**63.
_MAX_DIGITS = 18

# byte classes: 0 is neither, 1 an ASCII character str.split() separates
# on, 2 a decimal digit
_SPACE, _DIGIT = 1, 2
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[[c for c in range(128) if chr(c).isspace()]] = _SPACE
_BYTE_CLASS[ord("0"):ord("9") + 1] = _DIGIT


def format_group(g: CayleyTable) -> str:
    rows = [" ".join(map(str, row)) for row in g.table.tolist()]
    return "\n".join([str(g.order), *rows]) + "\n"


def export_group(g: CayleyTable, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_group(g))


def _is_token(tok: str) -> bool:
    return tok.isascii() and tok.isdigit() and len(tok) <= _MAX_DIGITS


def _token_error(lineno: int, what: str, tok: str) -> CayParseError:
    shown = repr(tok if len(tok) <= 24 else tok[:20] + "...")
    if tok.isascii() and tok.isdigit():
        return CayParseError(
            f"line {lineno}: {what} has more than {_MAX_DIGITS} digits: {shown}"
        )
    return CayParseError(
        f"line {lineno}: {what} is not an ASCII decimal integer: {shown}"
    )


def _row_error(rows, first: int, n: int) -> CayParseError | None:
    """The error of the first bad row, or None if every row parses;
    ``rows[0]`` is row ``first``."""
    for i, line in enumerate(rows, start=first):
        lineno = i + 2
        tokens = line.split()
        if len(tokens) != n:
            return CayParseError(
                f"line {lineno}: expected {n} entries, found {len(tokens)}"
            )
        for j, tok in enumerate(tokens):
            if not _is_token(tok):
                return _token_error(lineno, f"entry {j}", tok)
        if not line.isascii():
            return CayParseError(f"line {lineno}: non-ASCII separator")
    return None


def _block_error(rows, first: int, n: int) -> Exception:
    """The error of a block that failed the kernel's checks."""
    return _row_error(rows, first, n) or InternalInconsistency(
        f"rows {first}..{first + len(rows) - 1} failed the block check, "
        "but every row parses"
    )


def _parse_block(rows, first: int, n: int, out: np.ndarray) -> None:
    """Parse ``rows`` (rows ``first``, ``first + 1``, ...) into ``out``, the
    flat int64 view of their slice of the table."""
    try:
        buf = "\n".join(rows).encode("ascii")
    except UnicodeEncodeError:
        raise _block_error(rows, first, n) from None
    b = np.frombuffer(buf, dtype=np.uint8)
    cls = _BYTE_CLASS.take(b)
    if not cls.all():
        raise _block_error(rows, first, n)
    # edges[k] is +1 where a token starts at byte k, -1 where one ends
    digit = (cls == _DIGIT).view(np.int8)
    edges = np.diff(digit, prepend=np.int8(0), append=np.int8(0))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    # tokens before each newline, so the running count at each row end
    per_row = np.searchsorted(starts, np.flatnonzero(b == ord("\n")))
    if starts.size != out.size or np.any(per_row != np.arange(1, len(rows)) * n):
        raise _block_error(rows, first, n)
    widths = ends - starts
    width = int(widths.max())
    if width > _MAX_DIGITS:
        raise _block_error(rows, first, n)
    widths = widths.astype(np.uint8)
    # digit k from the right of every token at once; the byte read for a
    # token narrower than k + 1 is not its own, so it is zeroed.  The zero
    # pad keeps the reads of the first token inside the buffer.
    padded = np.concatenate([np.full(width, ord("0"), dtype=np.uint8), b])
    out[:] = 0
    for k in range(width):
        d = padded[width - 1 - k:].take(ends)   # b[ends - 1 - k]
        d -= np.uint8(ord("0"))
        d[widths <= k] = 0
        out += np.multiply(d, 10**k, dtype=np.int64)


def parse_group(text: str, descriptor: str = None) -> CayleyTable:
    """Parse .cay text; errors carry 1-based line numbers.  A raised error
    holds no reference to the line list, the table or a check's scratch."""
    return _cleared_on_error(_parse_group, text, descriptor)


def _parse_group(text, descriptor):
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise CayParseError("line 1: expected the group order")
    head = lines[0].strip()
    if not _is_token(head):
        raise _token_error(1, "order", head)
    n = int(head)
    if n < 1:
        raise CayParseError(f"line 1: order must be >= 1, got {n}")
    rows = lines[1:n + 1]
    # a row of n tokens has at least 2n - 1 characters; so a shorter text
    # fails some row, and the table is never allocated for it
    if len(rows) < n or sum(map(len, rows)) < n * (2 * n - 1):
        raise _row_error(rows, 0, n) or CayParseError(
            f"line {len(rows) + 2}: missing row {len(rows)} of {n}"
        )
    table = np.empty((n, n), dtype=np.int64)
    flat = table.reshape(-1)
    first, size = 0, 0
    for i, row in enumerate(rows):
        size += len(row) + 1
        if size >= _BLOCK_BYTES or i == n - 1:
            _parse_block(rows[first:i + 1], first, n, flat[first * n:(i + 1) * n])
            first, size = i + 1, 0
    for extra in range(n + 1, len(lines)):
        if lines[extra].strip():
            raise CayParseError(f"line {extra + 1}: unexpected content after the table")
    return validate(table, descriptor=descriptor)


def import_group(path: str) -> CayleyTable:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the lines before the bad byte are ASCII; "x" stands in for it
        line = len((data[:exc.start].decode("ascii") + "x").splitlines())
        raise CayParseError(
            f"line {line}: non-ASCII byte 0x{data[exc.start]:02x}"
        ) from None
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_group(text, descriptor=f"imported({name})")


def _canonical_edges(graph: NcGraph):
    """The canonical vertex order and the edges as position pairs [u, v],
    u < v, sorted: the upper triangle of the canonically ordered matrix."""
    order = canonical_order(graph)
    p = np.asarray(order, dtype=np.intp)
    mat = graph.matrix[p][:, p]
    return order, np.argwhere(np.triu(mat, 1)).tolist()


def graph_to_text(graph: NcGraph) -> str:
    """Edge list under the canonical vertex order: "nv ne" header, then one
    "u v" line per edge with 0-based canonical positions, u < v, sorted."""
    _, edges = _canonical_edges(graph)
    lines = [f"{graph.num_vertices} {graph.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def graph_to_json(graph: NcGraph) -> dict:
    """JSON form of the graph keeping parent element labels: entry k of
    "vertices" is the parent element index at canonical position k."""
    order, edges = _canonical_edges(graph)
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "parent_descriptor": graph.parent_descriptor,
        "parent_order": graph.parent_order,
        "parent_center_size": graph.parent_center_size,
        "vertices": [graph.vertices[v] for v in order],
        "edges": edges,
    }
