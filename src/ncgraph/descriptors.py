"""Descriptor grammar and constructors for the built-in group families.

A descriptor is a string such as ``dihedral(4)``, ``abelian(4,2)`` or
``product(dicyclic(2),cyclic(3))``.  Parsing produces a ``GroupDescriptor``
tree whose ``str()`` form round-trips, and ``construct`` turns the tree into
a validated ``CayleyTable``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cayley import (
    DEFAULT_ORDER_CAP,
    CayleyTable,
    center,
    is_prime,
    product_table,
    validate,
)
from .errors import BadDescriptor, InternalInconsistency, OrderOverflow

FAMILY_NAMES = ("cyclic", "abelian", "dihedral", "dicyclic", "heisenberg", "product")


@dataclass(frozen=True)
class GroupDescriptor:
    """Parsed descriptor: a family name plus integer or nested-descriptor args."""

    name: str
    args: tuple

    def __str__(self):
        inner = ",".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


# --- parsing -------------------------------------------------------------------

def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse a descriptor string; raises BadDescriptor with a position on errors."""
    s = text
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def fail(msg):
        raise BadDescriptor(f"{msg} at position {pos} in {text!r}")

    def parse_node():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(s) and (s[pos].isalpha() or s[pos] == "_"):
            pos += 1
        name = s[start:pos]
        if not name:
            fail("expected a family name")
        if name not in FAMILY_NAMES:
            fail(f"unknown family {name!r}")
        skip_ws()
        if pos >= len(s) or s[pos] != "(":
            fail(f"expected '(' after {name!r}")
        pos += 1
        args = []
        skip_ws()
        if pos < len(s) and s[pos] == ")":
            pos += 1
            return GroupDescriptor(name, ())
        while True:
            skip_ws()
            if pos < len(s) and (s[pos].isalpha() or s[pos] == "_"):
                args.append(parse_node())
            else:
                start_num = pos
                while pos < len(s) and s[pos].isdigit():
                    pos += 1
                if start_num == pos:
                    fail("expected an integer or nested descriptor")
                args.append(int(s[start_num:pos]))
            skip_ws()
            if pos < len(s) and s[pos] == ",":
                pos += 1
                continue
            if pos < len(s) and s[pos] == ")":
                pos += 1
                return GroupDescriptor(name, tuple(args))
            fail("expected ',' or ')'")

    node = parse_node()
    skip_ws()
    if pos != len(s):
        fail("trailing characters")
    _check(node)
    return node


def _check(desc: GroupDescriptor) -> None:
    """Validate arity and argument ranges over the whole descriptor tree."""
    name, args = desc.name, desc.args
    ints = all(isinstance(a, int) for a in args)
    if name == "cyclic":
        if len(args) != 1 or not ints or args[0] < 1:
            raise BadDescriptor(f"cyclic needs one integer >= 1, got {desc}")
    elif name == "abelian":
        if not args or not ints or any(a < 1 for a in args):
            raise BadDescriptor(f"abelian needs integers >= 1, got {desc}")
    elif name == "dihedral":
        if len(args) != 1 or not ints or args[0] < 3:
            raise BadDescriptor(f"dihedral needs one integer >= 3, got {desc}")
    elif name == "dicyclic":
        if len(args) != 1 or not ints or args[0] < 2:
            raise BadDescriptor(f"dicyclic needs one integer >= 2, got {desc}")
    elif name == "heisenberg":
        if len(args) != 2 or not ints or args[1] < 1:
            raise BadDescriptor(f"heisenberg needs integers (p, k) with k >= 1, got {desc}")
        if not is_prime(args[0]):
            raise BadDescriptor(f"heisenberg needs a prime first argument, got {desc}")
    elif name == "product":
        if len(args) < 2 or not all(isinstance(a, GroupDescriptor) for a in args):
            raise BadDescriptor(f"product needs at least two nested descriptors, got {desc}")
        for a in args:
            _check(a)
    else:
        raise BadDescriptor(f"unknown family {name!r}")


def descriptor_order(desc: GroupDescriptor) -> int:
    """Group order implied by a descriptor, computed without building the table."""
    _check(desc)
    name, args = desc.name, desc.args
    if name == "cyclic":
        return args[0]
    if name == "abelian":
        return int(np.prod([a for a in args], dtype=object))
    if name == "dihedral":
        return 2 * args[0]
    if name == "dicyclic":
        return 4 * args[0]
    if name == "heisenberg":
        p, k = args
        return p ** (2 * k + 1)
    return reduce(lambda a, b: a * b, (descriptor_order(a) for a in args))


# --- raw table builders ----------------------------------------------------------

def _circulant(m: int, starts) -> np.ndarray:
    """The int32 m-by-m block whose row i is starts[i], starts[i]+1, ... mod m."""
    return (np.asarray(starts, dtype=np.int32)[:, None] + np.arange(m, dtype=np.int32)) % m


def _cyclic_table(k: int) -> np.ndarray:
    return _circulant(k, np.arange(k))


def _dihedral_table(k: int) -> np.ndarray:
    """Symmetries of the regular k-gon; index e*k + i encodes s^e r^i.

    r^i r^j = r^(i+j) and r^i s r^j = s r^(j-i), so the table is two k-by-k
    circulants, (i+j) mod k and (j-i) mod k, placed in four blocks.
    """
    plus, minus = _cyclic_table(k), _circulant(k, -np.arange(k) % k)
    out = np.empty((2, k, 2, k), dtype=np.int32)   # [e, i, e', j]
    out[0, :, 0], out[0, :, 1], out[1, :, 0], out[1, :, 1] = plus, minus + k, plus + k, minus
    return out.reshape(2 * k, 2 * k)


def _dicyclic_table(k: int) -> np.ndarray:
    """Dicyclic group of order 4k; index e*2k + i encodes b^e a^i with b^2 = a^k.

    With m = 2k the blocks are the m-by-m circulants (i+j) mod m and
    (j-i) mod m, and (j-i+k) mod m where b^2 = a^k enters.
    """
    m, i = 2 * k, np.arange(2 * k)
    plus, minus, twisted = _cyclic_table(m), _circulant(m, -i % m), _circulant(m, (k - i) % m)
    out = np.empty((2, m, 2, m), dtype=np.int32)   # [e, i, e', j]
    out[0, :, 0], out[0, :, 1], out[1, :, 0], out[1, :, 1] = plus, minus + m, plus + m, twisted
    return out.reshape(2 * m, 2 * m)


def _heisenberg_table(p: int, k: int) -> np.ndarray:
    """Upper unitriangular (k+2)x(k+2) matrices over F_p, as tuples (a, b, c).

    The product is (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a . b')
    with everything mod p; the index packs the digits (a_1..a_k, b_1..b_k, c)
    in base p, most significant first.  So the table is an (n/p)-by-(n/p)
    block over the (a, b) part, digitwise addition mod p, with a p-by-p
    inner block (c + c' + a . b') mod p at each entry.
    """
    m = p ** (2 * k)
    outer = reduce(product_table, [_cyclic_table(p)] * (2 * k))
    digits = np.arange(m)[:, None] // p ** np.arange(2 * k - 1, -1, -1) % p
    dot = digits[:, :k] @ digits[:, k:].T % p
    c = np.arange(p, dtype=np.int32)
    inner = (c[:, None, None] + c[:, None] + c) % p   # [d, c, c'] -> d + c + c'
    out = (outer * p)[:, None, :, None] + inner[dot].transpose(0, 2, 1, 3)
    return out.reshape(m * p, m * p)


def _build_raw(desc: GroupDescriptor, max_order: int) -> np.ndarray:
    order = descriptor_order(desc)
    if order > max_order:
        raise OrderOverflow(
            f"{desc} has order {order}, above the cap {max_order}"
        )
    name, args = desc.name, desc.args
    if name == "cyclic":
        return _cyclic_table(args[0])
    if name == "abelian":
        raw = _cyclic_table(args[0])
        for d in args[1:]:
            raw = product_table(raw, _cyclic_table(d))
        return raw
    if name == "dihedral":
        return _dihedral_table(args[0])
    if name == "dicyclic":
        return _dicyclic_table(args[0])
    if name == "heisenberg":
        return _heisenberg_table(*args)
    raw = _build_raw(args[0], max_order)
    for sub in args[1:]:
        raw = product_table(raw, _build_raw(sub, max_order))
    return raw


def _expected_center_size(desc: GroupDescriptor) -> int:
    name, args = desc.name, desc.args
    if name in ("cyclic", "abelian"):
        return descriptor_order(desc)
    if name == "dihedral":
        return 2 if args[0] % 2 == 0 else 1
    if name == "dicyclic":
        return 2
    if name == "heisenberg":
        return args[0]
    return reduce(lambda a, b: a * b, (_expected_center_size(a) for a in args))


def construct(descriptor, max_order: int = DEFAULT_ORDER_CAP) -> CayleyTable:
    """Build a family group from a descriptor string or tree.

    The raw table goes through the same full validation as any imported
    table, associativity included, and the centre size is cross-checked
    against the closed form for the family.
    """
    desc = parse_descriptor(descriptor) if isinstance(descriptor, str) else descriptor
    _check(desc)
    raw = _build_raw(desc, max_order)
    g = validate(raw, descriptor=str(desc))
    if len(center(g)) != _expected_center_size(desc):
        raise InternalInconsistency(
            f"{desc}: centre size {len(center(g))} does not match the "
            f"family's closed form {_expected_center_size(desc)}"
        )
    return g
