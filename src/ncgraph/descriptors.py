"""Descriptor grammar and constructors for the built-in group families.

A descriptor is a string such as ``dihedral(4)``, ``abelian(4,2)`` or
``product(dicyclic(2),cyclic(3))``.  Parsing produces a ``GroupDescriptor``
tree whose ``str()`` form round-trips, and ``construct`` turns the tree into
a validated ``CayleyTable``.  Everything known about a family (the arguments
it takes, the order and centre size they give, its table and, for the
catalog, its members under an order cap) is one row of ``_FAMILIES``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import reduce
from itertools import count, takewhile
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

# ``validate`` is not called here; it stays importable from this module for
# bench/worker.py, whose tracer wraps it by this name
from .cayley import (
    DEFAULT_ORDER_CAP,
    PRIME_TEST_LIMIT,
    CayleyTable,
    _adopt,
    _check_closed,
    _check_order,
    _cleared_on_error,
    center,
    is_prime,
    product_table,
    validate,
)
from .errors import BadDescriptor, InternalInconsistency, OrderOverflow


# the deepest a descriptor may nest: parsing it, its order and str()
# recurse once per level
MAX_NESTING = 100


@dataclass(frozen=True)
class GroupDescriptor:
    """A family name plus integer or nested-descriptor args.  Construction
    checks the args against the family's rule and the nesting against
    ``MAX_NESTING``, so every descriptor tree is valid."""

    name: str
    args: tuple

    def __post_init__(self):
        row = _FAMILIES.get(self.name)
        if row is None:
            raise BadDescriptor(f"unknown family {self.name!r}")
        if not row.takes(self.args):
            raise BadDescriptor(f"{self.name} needs {row.rule}, got {self}")
        depth = 1 + max((a._depth for a in self.args if isinstance(a, GroupDescriptor)),
                        default=0)
        if depth > MAX_NESTING:
            raise BadDescriptor(f"{self.name} nests {depth} levels deep, past the "
                                f"limit of {MAX_NESTING}")
        object.__setattr__(self, "_depth", depth)

    def __str__(self):
        inner = ",".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


# --- parsing -------------------------------------------------------------------

# one token: a name, an integer, or any other single character; names,
# digits and the whitespace between tokens are ASCII only
_TOKEN = re.compile(r"\s*(?:([A-Za-z_]+)|([0-9]+)|(\S))", re.ASCII)


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse a descriptor string; raises BadDescriptor with a position on
    errors, nesting deeper than ``MAX_NESTING`` levels among them."""
    # (position, name, digits, other character) per token, then the end
    tokens = [(m.start(m.lastindex), *m.groups()) for m in _TOKEN.finditer(text)]
    tokens.append((len(text), None, None, None))
    i = 0

    def fail(msg):
        raise BadDescriptor(f"{msg} at position {tokens[i][0]} in {text!r}")

    def parse_node(depth):
        nonlocal i
        name = tokens[i][1]
        if not name:
            fail("expected a family name")
        if depth > MAX_NESTING:
            fail(f"nesting deeper than {MAX_NESTING} levels")
        if name not in _FAMILIES:
            fail(f"unknown family {name!r}")
        i += 1
        if tokens[i][3] != "(":
            fail(f"expected '(' after {name!r}")
        i += 1
        args = []
        while tokens[i - 1][3] != ")":   # the last separator taken
            if tokens[i][1]:
                args.append(parse_node(depth + 1))
            elif tokens[i][2]:
                try:
                    args.append(int(tokens[i][2]))
                except ValueError:   # more digits than int() converts
                    fail("integer too long")
                i += 1
            elif args or tokens[i][3] != ")":
                fail("expected an integer or nested descriptor")
            if tokens[i][3] not in (",", ")"):
                fail("expected ',' or ')'")
            i += 1
        return GroupDescriptor(name, tuple(args))

    node = parse_node(1)
    if i != len(tokens) - 1:
        fail("trailing characters")
    return node


def descriptor_order(desc: GroupDescriptor) -> int:
    """Group order implied by a descriptor, computed without building the table."""
    return _FAMILIES[desc.name].order(*desc.args)


def descriptor_vertex_count(desc: GroupDescriptor) -> int:
    """|G| - |Z(G)|, the vertex count of the group's non-commuting graph,
    computed without building the table."""
    return descriptor_order(desc) - _FAMILIES[desc.name].center(*desc.args)


# --- raw table builders ----------------------------------------------------------

def _circulant(m: int, starts) -> np.ndarray:
    """The uint16 m-by-m block whose row i is starts[i], starts[i]+1, ... mod m,
    for starts in 0..m-1: row i is the m-wide window at starts[i] of
    0, 1, ..., m-1 written twice, so no entry is computed."""
    half = np.arange(m, dtype=np.uint16)
    cycle = np.concatenate([half, half])
    # row s of the view is cycle[s:s + m], inside the 2m entries for s < m;
    # the gather copies the rows it takes
    return as_strided(cycle, (m, m), cycle.strides * 2)[starts]


def _cyclic_table(k: int) -> np.ndarray:
    return _circulant(k, np.arange(k))


def _dihedral_table(k: int) -> np.ndarray:
    """Symmetries of the regular k-gon; index e*k + i encodes s^e r^i.

    r^i r^j = r^(i+j) and r^i s r^j = s r^(j-i), so the table is two k-by-k
    circulants, (i+j) mod k and (j-i) mod k, placed in four blocks.
    """
    plus, minus = _cyclic_table(k), _circulant(k, -np.arange(k) % k)
    out = np.empty((2, k, 2, k), dtype=np.uint16)   # [e, i, e', j]
    out[0, :, 0], out[1, :, 1] = plus, minus
    np.add(minus, k, out=out[0, :, 1])
    np.add(plus, k, out=out[1, :, 0])
    return out.reshape(2 * k, 2 * k)


def _dicyclic_table(k: int) -> np.ndarray:
    """Dicyclic group of order 4k; index e*2k + i encodes b^e a^i with b^2 = a^k.

    With m = 2k the blocks are the m-by-m circulants (i+j) mod m and
    (j-i) mod m, and (j-i+k) mod m where b^2 = a^k enters.
    """
    m, i = 2 * k, np.arange(2 * k)
    plus, minus, twisted = _cyclic_table(m), _circulant(m, -i % m), _circulant(m, (k - i) % m)
    out = np.empty((2, m, 2, m), dtype=np.uint16)   # [e, i, e', j]
    out[0, :, 0], out[1, :, 1] = plus, twisted
    np.add(minus, m, out=out[0, :, 1])
    np.add(plus, m, out=out[1, :, 0])
    return out.reshape(2 * m, 2 * m)


def _heisenberg_table(p: int, k: int) -> np.ndarray:
    """Upper unitriangular (k+2)x(k+2) matrices over F_p, as tuples (a, b, c).

    The product is (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a . b')
    with everything mod p; the index packs the digits (a_1..a_k, b_1..b_k, c)
    in base p, most significant first.  So entry [a, b, c, a', b', c'] of
    the table is p times the index of (a + a', b + b') plus
    (a . b' + c + c') mod p, and each of the p^2 (c, c') slices is filled
    by one broadcast add of a q^4 block (q = p^k) and a q-by-q block
    [a, b'] -> (a . b' + c + c') mod p.
    """
    q = p ** k
    digits = np.arange(q)[:, None] // p ** np.arange(k - 1, -1, -1) % p
    dot = (digits @ digits.T % p).astype(np.uint16)   # [a, b'] -> a . b' mod p
    sums = reduce(product_table, [_cyclic_table(p)] * k)   # digitwise a + a' mod p
    outer = (product_table(sums, sums) * p).reshape(q, q, q, q)   # [a, b, a', b']
    out = np.empty((q, q, p, q, q, p), dtype=np.uint16)   # [a, b, c, a', b', c']
    for s in range(p):
        shift = ((dot + s) % p)[:, None, None, :]
        for c in range(p):
            np.add(outer, shift, out=out[:, :, c, :, :, (s - c) % p])
    return out.reshape(q * q * p, q * q * p)


# --- one row per family ---------------------------------------------------------

class _Family(NamedTuple):
    rule: str           # the arguments the family takes, as messages state them
    takes: Callable     # whether an argument tuple meets the rule
    order: Callable     # group order, from the arguments
    center: Callable    # centre size, from the arguments
    table: Callable     # raw table, from the arguments
    # lines of candidate arguments for the catalog, orders rising along each
    # line and over the lines' first entries; zip(count(1)) is (1,), (2,), ...
    members: Callable = None


def _ints(*least):
    """Whether arguments are one integer per entry of ``least``, each at least it."""
    return lambda args: len(args) == len(least) and all(
        isinstance(a, int) and a >= m for a, m in zip(args, least))


def _over_factors(field, combine):
    """A product's field: the factors' values of it, combined left to right."""
    return lambda *subs: reduce(combine, (getattr(_FAMILIES[d.name], field)(*d.args)
                                          for d in subs))


_FAMILIES = {
    "cyclic": _Family("one integer >= 1", _ints(1), lambda n: n, lambda n: n, _cyclic_table),
    "abelian": _Family(
        "integers >= 1",
        lambda args: args != () and all(isinstance(a, int) and a >= 1 for a in args),
        lambda *ds: math.prod(ds), lambda *ds: math.prod(ds),
        lambda *ds: reduce(product_table, map(_cyclic_table, ds))),
    "dihedral": _Family("one integer >= 3", _ints(3), lambda k: 2 * k,
                        lambda k: 2 - k % 2, _dihedral_table, lambda: [zip(count(1))]),
    "dicyclic": _Family("one integer >= 2", _ints(2), lambda k: 4 * k,
                        lambda k: 2, _dicyclic_table, lambda: [zip(count(1))]),
    "heisenberg": _Family(
        f"integers (p, k) with p prime, p < {PRIME_TEST_LIMIT} and k >= 1",
        lambda args: _ints(2, 1)(args) and args[0] < PRIME_TEST_LIMIT and is_prime(args[0]),
        lambda p, k: p ** (2 * k + 1), lambda p, k: p, _heisenberg_table,
        lambda: (((p, k) for k in count(1)) for p in count(2))),
    "product": _Family(
        "at least two nested descriptors",
        lambda args: len(args) >= 2 and all(isinstance(a, GroupDescriptor) for a in args),
        _over_factors("order", operator.mul), _over_factors("center", operator.mul),
        _over_factors("table", product_table)),
}


def family_members(name: str, max_order: int):
    """Every descriptor of family ``name`` whose order is at most
    ``max_order``; None for a family that lists no members."""
    row = _FAMILIES.get(name)
    if row is None or row.members is None:
        return None
    out = []
    for line in row.members():
        fits = list(takewhile(lambda args: row.order(*args) <= max_order, line))
        if not fits:
            break
        out += [GroupDescriptor(name, args) for args in fits if row.takes(args)]
    return out


def _build_raw(desc: GroupDescriptor, max_order: int) -> np.ndarray:
    """A C-ordered uint16 table of the group with its identity at 0, built
    for ``construct`` alone; ``OrderOverflow`` before it is built for an
    order above ``max_order`` or the uint16 limit."""
    order = descriptor_order(desc)
    if order > max_order:
        raise OrderOverflow(f"{desc} has order {order}, above the cap {max_order}")
    _check_order(order, str(desc))
    return _FAMILIES[desc.name].table(*desc.args)


def _validated_raw(desc: GroupDescriptor, max_order: int) -> CayleyTable:
    raw = _build_raw(desc, max_order)
    _check_closed(raw, str(desc))
    return _adopt(raw, str(desc))


def construct(descriptor, max_order: int = DEFAULT_ORDER_CAP) -> CayleyTable:
    """Build a family group from a descriptor string or tree.

    The raw table goes through the same full validation as any imported
    table, associativity included: the range check of ``validate``, then
    its second stage on the table just built, which becomes the group's
    without a copy.  The order and centre size are cross-checked against
    the family's closed forms, so the group's graph has
    ``descriptor_vertex_count`` vertices.
    """
    desc = parse_descriptor(descriptor) if isinstance(descriptor, str) else descriptor
    g = _cleared_on_error(_validated_raw, desc, max_order)
    row = _FAMILIES[desc.name]
    expected = (row.order(*desc.args), row.center(*desc.args))
    if (g.order, len(center(g))) != expected:
        raise InternalInconsistency(f"{desc}: order and centre size {g.order, len(center(g))} "
                                    f"do not match the family's closed forms {expected}")
    return g
