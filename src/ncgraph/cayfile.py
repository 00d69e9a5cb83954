"""The .cay file format for multiplication tables.

A .cay file is plain ASCII text: line 1 holds the order n, then n lines of
n whitespace-separated 0-based element indices (row i, column j holds the
product i*j).  Lines are those of ``str.splitlines``, so ``\\r\\n``, ``\\r``
and form feeds end a line, and blank lines may follow the table.  Every
token, the order included, is a string of 1 to 18 ASCII decimal digits, so
it always fits an int64; a sign, an underscore, a non-ASCII digit or a
longer token is a ``CayParseError`` naming its line and entry.

The rows are parsed by one numpy kernel over the bytes of the text, a block
of about ``_BLOCK_BYTES`` of text at a time, straight into an n-by-n int64
table.  Per block, ``bytes.translate`` checks the alphabet (ASCII digits
and whitespace); one digit mask over the space-padded block marks each
token's last digit; ``searchsorted`` of those ends against the newlines
gives the token count at each row end; and the digits are gathered right
to left, one pass per position, under a mask of the tokens still live,
until no token has a digit left.  A token still live at its 19th digit
fails the block.  Blocks are 128 KiB because the temporaries, a few bytes
per byte of text, then stay in the cache; 1 MiB blocks made several MB of
them per block, on fresh pages.  When a block fails a check, a walk over
its rows raises the error of the first bad row; the walk never builds a
table.

Import runs the full validator, as construction does, so a .cay file from
any source cannot smuggle in a non-group.
"""

from __future__ import annotations

import os

import numpy as np

from .cayley import CayleyTable, _cleared_on_error, validate
from .errors import CayParseError, InternalInconsistency

# Text per kernel block, in bytes; every temporary scales with it.
_BLOCK_BYTES = 1 << 17
# 10**18 - 1 is the widest digit string below 2**63.
_MAX_DIGITS = 18
# the bytes a row block may hold: what str.split() separates on, and digits
_ALPHABET = bytes(c for c in range(128) if chr(c).isspace() or chr(c).isdigit())
# read before a block's first token, so every digit read stays in the array
_PAD = b" " * _MAX_DIGITS


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
    if buf.translate(None, _ALPHABET):
        raise _block_error(rows, first, n)
    # every byte is a digit or whitespace, and whitespace sorts below "0"
    b = np.frombuffer(_PAD + buf + b" ", dtype=np.uint8)
    text = b[_MAX_DIGITS:]
    digit = text >= ord("0")
    # the offset of each token's last digit
    ends = np.flatnonzero(digit[:-1] > digit[1:])
    # tokens before each newline, so the running count at each row end
    per_row = np.searchsorted(ends, np.flatnonzero(text == ord("\n")), side="right")
    if ends.size != out.size or np.any(per_row != np.arange(1, len(rows)) * n):
        raise _block_error(rows, first, n)
    # digit k from the right of every token at once; a token whose byte
    # there is not a digit has run out of digits, and its later reads,
    # which belong to the token before it or the pad, are zeroed
    d = text.take(ends)
    live = np.ones(ends.size, dtype=bool)
    out[:] = 0
    for k in range(_MAX_DIGITS + 1):
        live &= d >= ord("0")
        if not live.any():
            return
        if k == _MAX_DIGITS:
            raise _block_error(rows, first, n)
        d -= np.uint8(ord("0"))
        d *= live
        out += np.multiply(d, 10**k, dtype=np.int64)
        b[_MAX_DIGITS - k - 1:].take(ends, out=d)


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

