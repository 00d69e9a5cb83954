"""The .cay file format for multiplication tables.

A .cay file is plain ASCII text: line 1 holds the order n, then n lines of
n whitespace-separated 0-based element indices (row i, column j holds the
product i*j).  Lines are those of ``str.splitlines``, so ``\\r\\n``, ``\\r``
and form feeds end a line, and blank lines may follow the table.  Every
token, the order included, is a string of 1 to 18 ASCII decimal digits, so
it always fits an int64; a sign, an underscore, a non-ASCII digit or a
longer token is a ``CayParseError`` naming its line and entry.

The text is read a window of about ``_BLOCK_BYTES`` characters at a time,
cut after a line end, as one ``bytes`` object (``_window``): a slice of the
file's bytes for ``import_group``, a slice of the str encoded for
``parse_group``.  A window keeps the text's offsets, with each line end one
``\\n`` and each separator a space; no row is ever a str.  One numpy kernel
parses a window's rows into an int64 scratch, then stored in the n-by-n
uint16 table, reading each token's digits four at a time as one word
(Lemire, "Number parsing at a gigabyte per second", 2021).  A window that
fails a check raises the error of its first bad row, from a walk over its
lines of the text.  The first entry beyond n - 1 is kept with its exact
int64 value (uint16 may wrap it into range) and raised as ``NotClosed``
once every row and the text after them have parsed, so a ``CayParseError``
comes first.  No table is allocated for a text shorter than n(2n - 1)
characters, which fails some row, and an order above 65,536, the most a
uint16 table indexes, raises ``OrderOverflow``.  Import then runs the rest
of the full validator on the uint16 table, as construction does, so a .cay
file from any source cannot smuggle in a non-group.  A raised error holds
none of the text or the file's bytes, nor any n-by-n scratch.
"""

from __future__ import annotations

import os

import numpy as np

# ``validate`` is not called here; it stays importable from this module for
# bench/worker.py, whose tracer wraps it by this name
from .cayley import (
    CayleyTable, _adopt, _check_order, _cleared_on_error, _not_closed, _table_name,
    validate,
)
from .errors import CayParseError, InternalInconsistency

# Text per window, in bytes; every temporary scales with it.
_BLOCK_BYTES = 1 << 17
# 10**18 - 1 is the widest digit string below 2**63.
_MAX_DIGITS = 18
# read before a window's first token: the word of a token's leading digits
# starts at most 3 bytes before it
_PAD = b"   "
# str line ends beyond ASCII; "\v", like them, never pairs with a neighbour
_WIDE_LINE_ENDS = str.maketrans("\x85\u2028\u2029", "\v\v\v")
# the ASCII line ends and separators that a window makes "\n" and " "
_ODD = (b"\r", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\t", b"\x1f")
_PLAIN = bytes.maketrans(b"".join(_ODD), b"\n" * 6 + b" " * 2)
# the top j bytes of a little-endian word: a token's last j digits
_TOP_BYTES = np.array([0, 0xFF << 24, 0xFFFF << 16, 0xFFFFFF << 8, 2**32 - 1], np.uint32)


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


class _Rejected(Exception):
    """A window failed a check; its lines of the text name the bad row."""


def _parse_block(window, ends: np.ndarray, n: int, out: np.ndarray) -> None:
    """Parse ``window``, the bytes of whole rows, each but maybe the last
    ended by a newline at its offset in ``ends``, into ``out``, the flat
    int64 view of their slice of the table, or raise ``_Rejected``."""
    b = np.frombuffer(_PAD + window + b" ", dtype=np.uint8)
    digit = b >= ord("0")
    if b.max() > ord("9") or (np.count_nonzero(digit) + ends.size
                              + np.count_nonzero(b == ord(" ")) != b.size):
        raise _Rejected
    # the digit mask rises before each token and falls after its last digit
    edges = np.flatnonzero(digit[:-1] != digit[1:])
    del digit
    # each token's length, and the offset of the word of its last four bytes
    lengths = edges[1::2] - edges[0::2]
    tails = edges[1::2] - 3
    del edges
    # tokens before each newline, so the running count at each row end
    per_row = np.searchsorted(tails, ends, side="right")
    width = int(lengths.max(initial=0))
    if (tails.size != out.size or not 0 <= out.size // n - ends.size <= 1
            or np.any(per_row != np.arange(1, ends.size + 1) * n)
            or width > _MAX_DIGITS):
        raise _Rejected
    # the four bytes from each offset, as a little-endian word
    words = np.ndarray(b.size - 3, dtype="<u4", buffer=b, strides=(1,))
    for k in range(0, width, 4):
        # digits k + 3 .. k of each token from the right, the last in the
        # top byte, and the bytes before the token zeroed
        w = words.take(tails - k if k else tails)
        w ^= 0x30303030
        w &= _TOP_BYTES.take(lengths - k if k else lengths, mode="clip")
        # bytes 1 and 3 become two-digit numbers, then the word one number
        w = (w * 0xA01) >> 8 & 0xFF00FF
        w = (w * 0x640001) >> 16
        if k:
            out += np.multiply(w, 10**k, dtype=np.int64)
        else:
            out[:] = w


@_cleared_on_error
def parse_group(text: str, descriptor: str = None) -> CayleyTable:
    """Parse .cay text; errors carry 1-based line numbers.  A raised error
    holds no reference to the text, the table or a check's scratch."""
    return _parse_group(text, descriptor)


def _ascii(piece) -> bytes:
    """A str or bytes piece of the text as bytes, one per character."""
    if isinstance(piece, bytes):
        return piece
    try:
        return piece.encode("ascii")
    except UnicodeEncodeError:
        return piece.translate(_WIDE_LINE_ENDS).encode("ascii", "replace")


def _str(piece) -> str:
    return piece.decode("ascii") if isinstance(piece, bytes) else piece


def _window(text, start: int):
    """The whole lines of ``text`` from ``start`` on, as bytes of the same
    length, with every line end one newline and every separator a space.  A
    window holds about ``_BLOCK_BYTES`` characters, and widens until it
    holds a line end or the end of the text; a ``\\r\\n`` is never cut."""
    end, width = len(text), _BLOCK_BYTES
    while True:
        stop = min(start + width, end)
        window = _ascii(text[start:stop])
        if window.endswith(b"\r") and _ascii(text[stop:stop + 1]) == b"\n":
            window, stop = window + b"\n", stop + 1
        if any(c in window for c in _ODD):
            window = window.replace(b"\r\n", b" \n").translate(_PLAIN)
        if stop == end:
            return window
        cut = window.rfind(b"\n") + 1
        if cut:
            return window[:cut]
        width *= 2


def _last_rows_error(rows, first: int, n: int) -> CayParseError:
    """The error of a text whose last rows are ``rows``, from row ``first``
    on: the first bad row, else the first missing one."""
    return _row_error(rows, first, n) or CayParseError(
        f"line {first + len(rows) + 2}: missing row {first + len(rows)} of {n}"
    )


def _parse_group(text, descriptor):
    window = _window(text, 0)
    pos = window.find(b"\n") + 1 or len(window)
    head = _str(text[:pos]).strip()
    if not head:
        raise CayParseError("line 1: expected the group order")
    if not _is_token(head):
        raise _token_error(1, "order", head)
    n = int(head)
    if n < 1:
        raise CayParseError(f"line 1: order must be >= 1, got {n}")
    # a row of n tokens has at least 2n - 1 characters; so a shorter text
    # fails some row, and the table is never allocated for it
    if len(text) < n * (2 * n - 1):
        raise _last_rows_error(_str(text[pos:]).splitlines()[:n], 0, n)
    name = _table_name(descriptor, n)
    _check_order(n, name)
    table = np.empty((n, n), dtype=np.uint16)
    flat = table.reshape(-1)
    # rows of at least 2n - 1 characters and a line end fill a window within
    # this many; so only a window widened for a long row grows the scratch
    scratch = np.empty(min(n, _BLOCK_BYTES // (2 * n) + 1) * n, dtype=np.int64)
    outside = None   # the first entry (i, j, value) beyond n - 1
    first = 0
    # ``window`` holds the unread bytes of the text from ``pos`` on, first
    # those after the order line
    window = window[pos:]
    while first < n and pos < len(text):
        window = window or _window(text, pos)
        ends = np.flatnonzero(np.frombuffer(window, dtype=np.uint8) == ord("\n"))
        # the window's rows that the table holds, and where the last ends
        rows = min(ends.size + (not window.endswith(b"\n")), n - first)
        cut = int(ends[rows - 1]) + 1 if rows <= ends.size else len(window)
        try:
            if 2 * n * rows > cut + 1:   # a row shorter than 2n - 1
                raise _Rejected
            if rows * n > scratch.size:
                scratch = np.empty(rows * n, dtype=np.int64)
            values = scratch[:rows * n]
            _parse_block(window[:cut], ends[:rows], n, values)
        except _Rejected:
            lines = _str(text[pos:pos + cut]).splitlines()
            raise _row_error(lines, first, n) or InternalInconsistency(
                f"rows {first}..{first + rows - 1} failed the window check, "
                "but every row parses") from None
        if outside is None and values.max() >= n:
            k = int(np.argmax(values >= n))
            outside = (first + k // n, k % n, int(values[k]))
        flat[first * n:(first + rows) * n] = values
        first, pos, window = first + rows, pos + cut, window[cut:]
    if first < n:
        raise _last_rows_error([], first, n)
    lineno = n + 2   # blank lines may follow the table, and nothing else
    while pos < len(text):
        window = window or _window(text, pos)
        # a str's strip also drops the non-ASCII blanks that a window shows as "?"
        lines = _str(text[pos:pos + len(window)]).splitlines() if window.strip(b" \n") else []
        for i, line in enumerate(lines, start=lineno):
            if line.strip():
                raise CayParseError(f"line {i}: unexpected content after the table")
        lineno += window.count(b"\n")
        pos, window = pos + len(window), b""
    if outside is not None:
        raise _not_closed(name, n, *outside)
    return _adopt(table, name)


@_cleared_on_error
def import_group(path: str) -> CayleyTable:
    """Import a .cay file, parsing its bytes; a non-ASCII byte is an error
    at its line.  A raised error holds none of the file or the table."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        at = int(np.argmax(np.frombuffer(data, dtype=np.uint8) > 127))
        # the lines before the bad byte are ASCII; "x" stands in for it
        line = len((data[:at].decode("ascii") + "x").splitlines())
        raise CayParseError(f"line {line}: non-ASCII byte 0x{data[at]:02x}")
    name = os.path.splitext(os.path.basename(path))[0]
    return _parse_group(data, f"imported({name})")
