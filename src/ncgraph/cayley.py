"""Finite groups as dense multiplication tables over element indices.

A group of order n lives in an n-by-n table of element indices with the
identity pinned at index 0.  Every table, whatever its source, passes the
full group-axiom check in ``validate``; associativity is proved with Light's
test over a generating set (O(n^2) per generator, at most log2(n)
generators for a group), a block of rows at a time, so the check holds no
n-by-n array but the table itself.  Those generators stay on the table,
and the centre, central series, conjugacy classes and Sylow closure run on
them instead of on n-by-n passes.  Derived data (inverses, centre,
conjugacy classes, ...) is memoised on the table object by ``_memoised``;
tables and their derived forms are immutable, so concurrent reads are safe.

Every table is a read-only, C-ordered uint16 array, written as uint16 by
every path that makes one, so a group has at most 65,536 elements; a
larger order raises ``OrderOverflow`` before anything n-by-n is allocated.
Arithmetic on table entries must stay below 2**16 or widen explicitly:
numpy 2 keeps ``uint16 * int`` in uint16, where numpy 1 promoted by value.
"""

from __future__ import annotations

import traceback
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial, wraps

import numpy as np

from .errors import (
    AbelianInput,
    IndexOutOfRange,
    InternalInconsistency,
    NoIdentity,
    NotASubgroup,
    NotAssociative,
    NotClosed,
    NotLatin,
    NotNilpotent,
    OrderOverflow,
)

# Default ceiling for construction-type operations (tables are O(n^2) memory).
DEFAULT_ORDER_CAP = 512
# Every table is uint16, so no group has more elements than 2**16.
_MAX_ORDER = 1 << 16
# Entries per row block of the table checks' scratch (Light's two buffers are
# 128 KiB of uint16 each); every scratch array scales with it.
_BLOCK_ENTRIES = 1 << 16


def _memoised(fn):
    """``fn(obj)``, computed on first use and held in ``obj._memo`` under
    ``fn``'s name, the wrapper's ``key``.  The held object itself is
    returned, so it must be immutable; a call that raises holds nothing."""
    key = fn.__name__

    @wraps(fn)
    def held(obj):
        memo = obj._memo
        if key not in memo:
            memo[key] = fn(obj)
        return memo[key]

    held.key = key
    return held


class CayleyTable:
    """A finite group given by its full multiplication table.

    ``table[i, j]`` is the index of the product i*j, in a read-only
    C-ordered uint16 array.  Index 0 is always the identity.  ``parent_map``
    is set on tables induced from a subgroup of a larger table and maps
    local indices back to parent indices.
    """

    __slots__ = ("order", "table", "descriptor", "parent_map", "_memo", "__weakref__")

    def __init__(self, order, table, descriptor, parent_map=None):
        self.order = int(order)
        self.table = table
        self.descriptor = descriptor
        self.parent_map = parent_map
        self._memo = {}

    @property
    @_memoised
    def inverses(self) -> np.ndarray:
        # each row holds 0 once, at x^-1; argmin would copy the whole
        # read-only table, so a block of rows is searched at a time
        t, step = self.table, _block_rows(self.order)
        inv = np.concatenate([np.argmax(t[s:s + step] == 0, axis=1)
                              for s in range(0, self.order, step)])
        inv.flags.writeable = False
        return inv

    @property
    @_memoised
    def generators(self) -> tuple:
        """At most log2(n) elements whose right closure is the whole group:
        the ones ``validate`` checked, else the same greedy cover on first use."""
        return _cover(self.table, 0, np.ones(self.order, dtype=bool))

    @property
    @_memoised
    def commuting(self) -> np.ndarray:
        """Boolean matrix whose [i, j] entry says whether i and j commute."""
        t = self.table
        # a row stride of whole 2 KiB (uint16 orders 1024, 2048, ...) sends
        # the reads of a column to a few cache sets, so such tables are
        # compared in tiles: 2.0 against 3.4 ms at order 1024 on a 2-core
        # Xeon, where other orders from 243 to 2048 gained little or lost
        c = _transpose_equal(t) if t.strides[0] % 2048 == 0 else t == t.T
        c.flags.writeable = False
        return c

    @property
    @_memoised
    def is_abelian(self) -> bool:
        return bool(self.commuting.all())

    def __repr__(self):
        return f"CayleyTable({self.descriptor!r}, order={self.order})"


def _transpose_equal(t) -> np.ndarray:
    """``t == t.T``, one 256-square tile at a time."""
    n, b = len(t), 256
    out = np.empty((n, n), dtype=bool)
    for i in range(0, n, b):
        for j in range(0, n, b):
            np.equal(t[i:i + b, j:j + b], t[j:j + b, i:i + b].T, out=out[i:i + b, j:j + b])
    return out


@dataclass(frozen=True)
class SylowFactor:
    """One Sylow subgroup of a nilpotent group: its prime, its elements as
    ascending indices, and whether it is abelian."""

    prime: int
    members: tuple
    abelian: bool


def _orbit_roots(perms, least=None) -> np.ndarray:
    """The least member of each point's orbit under the permutations in the
    rows of ``perms`` and those whose orbit roots ``least`` holds (orbits
    under fewer permutations refine those under more).  Every point points
    at a root, at first its own; each round hooks the larger root of every
    pair (x, perm[x]) onto the smaller and follows the pointers to the
    roots, until no pair has two roots."""
    least = np.arange(perms.shape[1]) if least is None else least.copy()
    while True:
        ends = least[perms]
        lo, hi = np.minimum(ends, least), np.maximum(ends, least)
        joined = lo != hi
        if not joined.any():
            return least
        np.minimum.at(least, hi[joined], lo[joined])
        while not ((root := least[least]) == least).all():
            least = root


def _cover(arr, identity, within, check=None):
    """Greedy generators of the element set ``within`` (a boolean mask), or
    None as soon as the cover escapes it.  From {identity}, the smallest
    uncovered member goes to ``check``, joins the generators, and the cover
    grows to the identity's orbit under right multiplication by them (the
    orbits so far are the warm start).  In a group each cover is the
    subgroup spanned so far and at least doubles, so a subgroup of order m
    takes at most log2(m) generators, and ``within`` is a subgroup exactly
    when no cover escapes."""
    roots = np.arange(arr.shape[0])
    covered = roots == identity
    gens = []
    while True:
        todo = np.flatnonzero(within & ~covered)
        if not todo.size:
            return tuple(gens)
        a = int(todo[0])
        if check is not None:
            check(a)
        gens.append(a)
        roots = _orbit_roots(arr[:, a][None], roots)
        covered = roots == roots[identity]
        if (covered & ~within).any():
            return None


def _check_associative(arr, identity, name) -> tuple:
    """Light's associativity test on a table with a two-sided identity.

    Light's criterion: the table is associative iff (x*a)*y == x*(a*y) for
    every x, y and every a in a generating set.  The elements that pass are
    closed under products, so it suffices to check the smallest element not
    yet covered, add it to the generators and grow the cover by right
    closure until it is the whole table.  Each checked a must make x -> x*a
    a permutation, so that the cover holds only products of generators,
    each with a left inverse: a table that passes is a group, so a Latin
    square.  A group takes at most log2(n) generators, each checked a block
    of rows at a time in two block buffers.  The first one that fails sends
    the table through ``_check_latin``, whose errors come first; past it,
    the witness is the first ``(x, a, y)`` with ``(x*a)*y != x*(a*y)``,
    generators in index order and ``(x, y)`` in row-major order.  Returns
    the generators.
    """
    n, rows = len(arr), _block_rows(len(arr))
    # the two block buffers are reused by every block and generator; a
    # partial, not a closure, so that clearing the frames of an error
    # releases them
    light = partial(_light, arr, np.empty((rows, n), arr.dtype),
                    np.empty((rows, n), arr.dtype), name)
    return _cover(arr, identity, np.ones(n, dtype=bool), light)


def _block_rows(n) -> int:
    """Rows of an n-by-n table per block of about ``_BLOCK_ENTRIES`` entries."""
    return min(n, max(1, _BLOCK_ENTRIES // n))


def _light(arr, left, right, name, a) -> None:
    """Light's check of one element ``a``, a block of rows at a time in the
    buffers ``left`` and ``right``; blocks go in row order, so the first
    block that differs holds the first failing ``(x, y)``."""
    column = arr[:, a]
    if not np.bincount(column, minlength=len(arr)).all():
        _check_latin(arr, name)   # column a repeats a value, so this raises
    step = len(left)
    for s in range(0, len(arr), step):
        block = arr[s:s + step]
        lhs, rhs = left[:len(block)], right[:len(block)]
        # entries are range-checked already, so "clip" never clips; it
        # spares the extra buffer that the default mode uses with out=
        np.take(arr, column[s:s + step], axis=0, out=lhs, mode="clip")  # (x*a)*y
        np.take(block, arr[a], axis=1, out=rhs, mode="clip")            # x*(a*y)
        if not np.array_equal(lhs, rhs):
            _check_latin(arr, name)
            i, y = map(int, np.argwhere(lhs != rhs)[0])
            x = s + i
            raise NotAssociative(
                f"{name}: ({x}*{a})*{y} != {x}*({a}*{y})",
                witness=(x, a, y),
            )


def _check_latin(arr, name) -> None:
    """``NotLatin`` at the first row, else the first column, of ``arr`` that
    repeats a value.  Line i holds every value exactly when all n flags
    seen[i, line_i] are set; the flags are scattered a block of lines at a
    time, so the index arrays stay near 1 MB."""
    n = len(arr)
    step = max(1, 2 ** 17 // n)
    for kind, lines in (("row", arr), ("column", arr.T)):
        seen = np.zeros(n * n, dtype=bool)
        for s in range(0, n, step):
            seen[(np.arange(s, min(s + step, n)) * n)[:, None] + lines[s:s + step]] = True
        bad = np.flatnonzero(~seen.reshape(n, n).all(axis=1))
        if bad.size:
            i = int(bad[0])
            v = int(np.nonzero(np.bincount(lines[i], minlength=n) > 1)[0][0])
            k1, k2 = map(int, np.nonzero(lines[i] == v)[0][:2])
            across = "columns" if kind == "row" else "rows"
            raise NotLatin(
                f"{name}: {kind} {i} repeats value {v} at {across} {k1} and {k2}",
                witness=(i, k1, k2) if kind == "row" else (k1, k2, i),
            )


def _index_entries(arr, name) -> np.ndarray:
    """A uint16 copy of a table that is not an integer array, or
    ``NotClosed`` at the first entry (row-major) that is not an integer in
    0..n-1, such as 0.5, 10**30 or a bool."""
    n = arr.shape[0]
    out = np.empty(arr.shape, dtype=np.uint16)
    for (i, j), v in np.ndenumerate(arr):
        if isinstance(v, np.generic):
            v = v.item()
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        if isinstance(v, bool) or not (isinstance(v, int) and 0 <= v < n):
            raise NotClosed(
                f"{name}: entry {v!r} at ({i}, {j}) is not an index in 0..{n - 1}",
                witness=(i, j, v),
            )
        out[i, j] = v
    return out


def _cleared_on_error(fn, *args):
    """``fn(*args)``.  An error keeps its traceback, but the frames it left
    lose their locals: a kept validation error would otherwise hold every
    n-by-n table and scratch buffer of the checks."""
    try:
        return fn(*args)
    except Exception as exc:
        traceback.clear_frames(exc.__traceback__)
        raise


def validate(raw, descriptor=None) -> CayleyTable:
    """Check the group axioms on a raw table and return a normalized group.

    Closure, two-sided identity, the Latin-square property and associativity
    hold for every table returned.  Associativity is Light's test over a
    generating set (see ``_check_associative``), which also proves the Latin
    property; a table that fails it raises ``NotLatin`` at a repeated value
    in a row, else a column, and otherwise ``NotAssociative`` with a triple
    ``(x, a, y)`` such that ``(x*a)*y != x*(a*y)``.  The generators it
    checked become the table's ``generators``.  If the identity is not at
    index 0, elements are relabeled so that it is.

    Every entry must be an integer in 0..n-1; the first one that is not
    (row-major) raises ``NotClosed`` with witness ``(i, j, value)``.  An
    integer array is read as it is; any other table (fractions, integers
    beyond int64, bools) is walked entry by entry, so 0.5 is never truncated
    and True is never read as 1.

    An order above 65,536 raises ``OrderOverflow`` before any entry is read.
    Beside the input, the checks hold one uint16 copy of the table, which
    becomes the group's, and scratch of a few row blocks.  A raised error
    holds no reference to either.
    """
    return _cleared_on_error(_validate, raw, descriptor)


def _table_name(descriptor, n) -> str:
    return descriptor if descriptor is not None else f"table(order={n})"


def _check_order(n, name) -> None:
    """``OrderOverflow`` for a group too large for a uint16 table."""
    if n > _MAX_ORDER:
        raise OrderOverflow(f"{name} has order {n}, above the limit {_MAX_ORDER} "
                            "of a uint16 table")


def _not_closed(name, n, i, j, v) -> NotClosed:
    return NotClosed(f"{name}: entry {v} at ({i}, {j}) is outside 0..{n - 1}",
                     witness=(i, j, v))


def _check_closed(arr, name) -> None:
    """``NotClosed`` at the first entry (row-major) of a square integer
    table that is outside 0..n-1."""
    n = len(arr)
    if arr.min() < 0 or arr.max() >= n:
        i, j = map(int, np.argwhere((arr < 0) | (arr >= n))[0])
        raise _not_closed(name, n, i, j, int(arr[i, j]))


def _validate(raw, descriptor):
    """Stage one of ``validate``, for a table passed in: its entries are
    checked as indices and copied once, to the uint16 table that stage two
    (``_adopt``) owns."""
    arr = np.asarray(raw)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError("expected a square table of order >= 1")
    name = _table_name(descriptor, arr.shape[0])
    _check_order(arr.shape[0], name)

    if arr.dtype.kind in "iu" and not isinstance(raw, np.ndarray):
        # np.asarray reads True as 1 among ints: look at a list's entries for bools
        entries = np.asarray(raw, dtype=object)
        if any(isinstance(v, (bool, np.bool_)) for v in entries.flat):
            arr = entries
    if arr.dtype.kind not in "iu":
        return _adopt(_index_entries(arr, name), name)
    _check_closed(arr, name)
    return _adopt(arr.astype(np.uint16, order="C"), name)


def _adopt(arr, name) -> CayleyTable:
    """Stage two of ``validate``: the group on ``arr``, a C-ordered uint16
    table of indices in 0..n-1 that the caller hands over.  The checks run
    on it in place, the identity is swapped to index 0 in place, and it is
    frozen as the group's table.  Callers run it under
    ``_cleared_on_error``."""
    n = len(arr)
    # an identity e has e*0 = 0, so only those rows are compared in full
    idx = np.arange(n)
    identity = next((int(e) for e in np.flatnonzero(arr[:, 0] == 0)
                     if (arr[e] == idx).all() and (arr[:, e] == idx).all()), None)
    if identity is None:
        raise NoIdentity(f"{name}: no two-sided identity element")

    gens = _check_associative(arr, identity, name)

    if identity != 0:
        # relabel by the transposition (0 identity): swap the two rows, the
        # two columns and, a block of rows at a time, the two values
        swap = [identity, 0]
        arr[[0, identity]] = arr[swap]
        arr[:, [0, identity]] = arr[:, swap]
        step = _block_rows(n)
        for s in range(0, n, step):
            block = arr[s:s + step]
            zeros = block == 0
            np.copyto(block, 0, where=block == identity)
            np.copyto(block, identity, where=zeros)
        gens = tuple({0: identity, identity: 0}.get(a, a) for a in gens)

    arr.flags.writeable = False
    g = CayleyTable(n, arr, name)
    g._memo[CayleyTable.generators.fget.key] = gens
    return g


# --- centre, centralizers, conjugacy -----------------------------------------

@_memoised
def center(g: CayleyTable) -> tuple:
    """The elements commuting with everything, as ascending indices: those
    that commute with every generator, an n-by-k comparison."""
    t, gens = g.table, list(g.generators)
    return tuple(np.flatnonzero((t[:, gens] == t[gens].T).all(axis=1)).tolist())


def _element_index(g: CayleyTable, x) -> int:
    """x as an element index of g: an int or numpy integer in 0..|G|-1, and
    not a bool."""
    if (isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer))
            or not 0 <= x < g.order):
        raise IndexOutOfRange(f"element index {x!r} is not an integer in 0..{g.order - 1}")
    return int(x)


def centralizer(g: CayleyTable, x: int) -> tuple:
    """The elements commuting with x, as ascending indices."""
    return tuple(np.flatnonzero(g.commuting[_element_index(g, x)]).tolist())


def centralizer_size(g: CayleyTable, x: int) -> int:
    return int(centralizer_data(g).sizes[_element_index(g, x)])


@dataclass(frozen=True)
class CentralizerData:
    """Read-only per-element arrays: |C(x)|, |Z(C(x))|, whether C(x) is
    abelian, and an id that is equal exactly for equal centralizers."""

    sizes: np.ndarray
    center_sizes: np.ndarray
    abelian: np.ndarray
    ids: np.ndarray


def _distinct_rows(a: np.ndarray) -> tuple:
    """For a C-contiguous 2-D array: the index of the first occurrence of
    each distinct row, and for each row the position of its distinct row in
    that list.  Rows are sorted as byte strings, which for uint8 rows is the
    order, and so the result, of ``np.unique(a, axis=0)`` at a fraction of
    its cost."""
    rows = a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).reshape(-1)
    _, first, ids = np.unique(rows, return_index=True, return_inverse=True)
    return first, ids


@_memoised
def centralizer_data(g: CayleyTable) -> CentralizerData:
    """Centralizer sizes, centre sizes and identities, memoised on the table.

    Elements with equal rows of the commuting matrix have the same
    centralizer, so the packed rows are deduplicated first.  y lies in
    Z(C(x)) exactly when y's row contains x's, which already puts y in
    C(x); so |Z(C(x))| is the number of elements whose distinct row contains
    x's, tested only on pairs of distinct rows whose first elements commute.
    """
    comm = g.commuting
    packed = np.packbits(comm, axis=1)
    first, ids = _distinct_rows(packed)
    rows = packed[first]
    a, b = np.nonzero(np.take(comm[first], first, axis=1))
    contained = np.empty(len(a), dtype=bool)
    step = max(1, 2 ** 20 // rows.shape[1])   # about 1 MB of rows at a time
    for s in range(0, len(a), step):
        contained[s:s + step] = ~(rows[a[s:s + step]] & ~rows[b[s:s + step]]).any(axis=1)
    weights = np.bincount(ids)[b[contained]]
    zsizes = np.bincount(a[contained], weights, minlength=len(first)).astype(np.int64)
    sizes = np.count_nonzero(comm[first], axis=1)[ids]
    center_sizes = zsizes[ids]
    data = CentralizerData(sizes, center_sizes, center_sizes == sizes, ids)
    for arr in (sizes, center_sizes, data.abelian, ids):
        arr.flags.writeable = False
    return data


@_memoised
def conjugacy_classes(g: CayleyTable) -> tuple:
    """Partition of the elements into conjugacy classes, by smallest member.

    Classes are the orbits of conjugation by the generators,
    x -> s^-1 * x * s.  Each class is cross-checked against the
    orbit-stabiliser count |class| * |centralizer| = |G| at its least member.
    """
    n, t = g.order, g.table
    gens = np.array(g.generators, dtype=np.intp)
    least = _orbit_roots(t[t[g.inverses[gens]], gens[:, None]])   # [k, x] -> s_k^-1 x s_k
    counts = np.bincount(least, minlength=n)
    leaders = np.flatnonzero(counts)
    sizes = counts[leaders]
    csizes = g.commuting[leaders].sum(axis=1)
    bad = np.flatnonzero(sizes * csizes != n)
    if bad.size:
        k = bad[0]
        raise InternalInconsistency(
            f"orbit-stabiliser mismatch at element {leaders[k]}: "
            f"{sizes[k]} * {csizes[k]} != {n}"
        )
    members = np.argsort(least, kind="stable").tolist()
    ends = np.cumsum(sizes).tolist()
    return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))


# --- nilpotency ---------------------------------------------------------------

@_memoised
def upper_central_series(g: CayleyTable) -> tuple:
    """Ascending central series Z_0 = {e} <= Z_1 <= ...; stops at a stall or at G.
    Each level is its elements as ascending indices.

    Membership step: x lies in the next level iff its commutator
    x^-1 s^-1 x s with every generator s lands in the current level (the
    images of a generating set generate G/Z_i).  The commutators are one
    length-n gather per generator; each level is then one gather of the
    current membership mask and a row-wise ``all``.
    """
    n = g.order
    t, inv = g.table, g.inverses
    gens = np.array(g.generators, dtype=np.intp)
    # [x, k] -> (x^-1 * s_k^-1) * (x * s_k)
    commutators = t[t[inv[:, None], inv[gens]], t[:, gens]]
    current = np.zeros(n, dtype=bool)
    current[0] = True
    levels = [current]
    while not current.all():
        nxt = current[commutators].all(axis=1)
        if np.array_equal(nxt, current):
            break
        current = nxt
        levels.append(current)
    return tuple(tuple(np.flatnonzero(m).tolist()) for m in levels)


@_memoised
def is_nilpotent(g: CayleyTable):
    """Return (flag, nilpotency class or None)."""
    series = upper_central_series(g)
    if len(series[-1]) == g.order:
        return True, len(series) - 1
    return False, None


# --- products and subgroups ----------------------------------------------------

def product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Raw direct-product table of two integer tables, pair (i, j) at
    i*m + j: read-only, C-ordered uint16, or ``OrderOverflow`` before it is
    built."""
    n, m = len(t1), len(t2)
    _check_order(n * m, f"product of orders {n} and {m}")
    out = np.empty((n, m, n, m), dtype=np.uint16)
    # every i*m + j is below n*m <= 2**16, so uint16 arithmetic is exact;
    # m is 2**16 only beside an order-1 factor, whose one i*m is 0, so
    # m mod 2**16 serves there and always fits a uint16 loop
    np.multiply(t1[:, None, :, None], m % _MAX_ORDER, out=out, casting="unsafe")
    np.add(out, t2[None, :, None, :], out=out, casting="unsafe")
    out = out.reshape(n * m, n * m)
    out.flags.writeable = False
    return out


def induced_group(g: CayleyTable, members) -> CayleyTable:
    """Relabel a subgroup, any iterable of g's element indices, as a group
    of its own.  Indices are checked as by ``centralizer``, duplicates
    collapse; a non-iterable, or a set that is not a subgroup (no identity,
    or not closed), is NotASubgroup.  The result's ``parent_map`` maps local
    indices back to parent indices, ascending; the parent identity comes
    first, so it stays at index 0.
    """
    if not isinstance(members, Iterable):
        raise NotASubgroup(f"{members!r} is not a set of element indices")
    members = tuple(sorted({_element_index(g, x) for x in members}))
    if not members or members[0] != 0:
        raise NotASubgroup("subgroup must contain the identity")
    k = len(members)
    inside = np.zeros(g.order, dtype=bool)
    inside[list(members)] = True
    sub = g.table[np.ix_(members, members)]
    escapes = ~inside[sub]
    if escapes.any():
        i, j = map(int, np.argwhere(escapes)[0])
        raise NotASubgroup(
            f"set is not closed: {members[i]} * {members[j]} escapes it",
            witness=(members[i], members[j], int(sub[i, j])),
        )
    lookup = np.zeros(g.order, dtype=np.uint16)
    lookup[list(members)] = np.arange(k)
    table = lookup[sub]
    table.flags.writeable = False
    return CayleyTable(
        k, table, f"subgroup(order={k}) of {g.descriptor}", parent_map=members
    )


# --- structure tests ------------------------------------------------------------

def is_ac_group(g: CayleyTable) -> bool:
    """Whether every centralizer of a non-central element is abelian (read
    from ``centralizer_data``)."""
    if g.is_abelian:
        raise AbelianInput("AC is only defined for non-abelian groups")
    data = centralizer_data(g)
    return bool(data.abelian[data.sizes < g.order].all())


def has_uniform_class_sizes(g: CayleyTable):
    """Return (flag, common size or None) over the non-trivial classes."""
    if g.is_abelian:
        raise AbelianInput("class-size profile test needs a non-abelian group")
    sizes = {len(c) for c in conjugacy_classes(g) if len(c) > 1}
    if len(sizes) == 1:
        return True, sizes.pop()
    return False, None


# the least strong pseudoprime to the first thirteen prime bases (Sorenson &
# Webster 2015): below it, Miller-Rabin to those bases decides primality
PRIME_TEST_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test; a ValueError from
    ``PRIME_TEST_LIMIT`` on, where its answer would only be probable."""
    if p >= PRIME_TEST_LIMIT:
        raise ValueError(f"{p} is past the exact prime test's limit {PRIME_TEST_LIMIT}")
    if p < 2 or p % 2 == 0:
        return p == 2
    s = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = d * 2**s with d odd
    d = (p - 1) >> s
    return all(a % p == 0 or pow(a, d, p) == 1
               or any(pow(a, d << r, p) == p - 1 for r in range(s))
               for a in _PRIME_BASES)


def prime_factorization(n: int) -> dict:
    """Prime -> exponent map (trial division; inputs here are small)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@_memoised
def sylow_decomposition(g: CayleyTable) -> tuple:
    """Sylow subgroups of a nilpotent group as p-power-order element sets.

    For each prime power p^e exactly dividing |G|, the elements with
    x^(p^e) = e are collected and verified to be a subgroup of that size: a
    greedy cover (``_cover``) must never leave them, and the factor is
    abelian exactly when the cover's generators commute.  The product map
    across all factors is verified to be a bijection onto G.
    """
    nilp, _ = is_nilpotent(g)
    if not nilp:
        raise NotNilpotent(
            f"{g.descriptor}: Sylow decomposition by element orders needs nilpotency"
        )
    n = g.order
    t = g.table
    factors = []
    for p, e in sorted(prime_factorization(n).items()):
        power, base, k = np.zeros(n, dtype=np.intp), np.arange(n), p ** e
        while k:   # x^(p^e) for every x, by repeated squaring
            power, base, k = t[power, base] if k & 1 else power, t[base, base], k >> 1
        mask = power == 0
        members = tuple(np.flatnonzero(mask).tolist())
        if len(members) != p ** e:
            raise InternalInconsistency(
                f"p-power-order elements at p={p} number {len(members)}, "
                f"expected {p ** e}"
            )
        gens = g.generators if len(members) == n else _cover(t, 0, mask)
        if gens is None:
            raise InternalInconsistency(
                f"p-power-order elements at p={p} are not closed"
            )
        sub = t[np.array(gens)][:, gens]
        factors.append(SylowFactor(p, members, bool((sub == sub.T).all())))
    products = np.zeros(1, dtype=np.int64)   # every product x_1 * x_2 * ... in turn
    for f in factors:
        products = t[products][:, f.members].ravel()
    hits = np.bincount(products, minlength=n)
    if (hits > 1).any():
        raise InternalInconsistency("Sylow product map is not injective")
    if not hits.all():
        raise InternalInconsistency("Sylow product map is not surjective")
    return tuple(factors)


def _nonabelian_sylow_factors(g: CayleyTable) -> list:
    """The non-abelian factors of a nilpotent group's Sylow decomposition,
    primes ascending."""
    return [f for f in sylow_decomposition(g) if not f.abelian]
