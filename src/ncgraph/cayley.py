"""Finite groups as dense multiplication tables over element indices.

A group of order n lives in an n-by-n table of element indices with the
identity pinned at index 0.  Every table, whatever its source, passes the
full group-axiom check in ``validate``; associativity is proved with Light's
test over a generating set (O(n^2) per generator, at most log2(n)
generators for a group).  Derived data (inverses, centre, conjugacy
classes, ...) is memoised on the table object; tables are immutable after
construction, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


class CayleyTable:
    """A finite group given by its full multiplication table.

    ``table[i, j]`` is the index of the product i*j.  Index 0 is always the
    identity.  ``parent_map`` is set on tables induced from a subgroup of a
    larger table and maps local indices back to parent indices.
    """

    __slots__ = ("order", "table", "descriptor", "parent_map", "_memo")

    def __init__(self, order, table, descriptor, parent_map=None):
        self.order = int(order)
        self.table = table
        self.descriptor = descriptor
        self.parent_map = parent_map
        self._memo = {}

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverses[i])

    def elements(self) -> range:
        return range(self.order)

    @property
    def inverses(self) -> np.ndarray:
        inv = self._memo.get("inv")
        if inv is None:
            rows, cols = np.nonzero(self.table == 0)
            inv = np.empty(self.order, dtype=np.int64)
            inv[rows] = cols
            inv.flags.writeable = False
            self._memo["inv"] = inv
        return inv

    @property
    def commuting(self) -> np.ndarray:
        """Boolean matrix whose [i, j] entry says whether i and j commute."""
        c = self._memo.get("comm")
        if c is None:
            c = np.asarray(self.table == self.table.T)
            c.flags.writeable = False
            self._memo["comm"] = c
        return c

    @property
    def is_abelian(self) -> bool:
        flag = self._memo.get("abelian")
        if flag is None:
            flag = bool(self.commuting.all())
            self._memo["abelian"] = flag
        return flag

    def __repr__(self):
        return f"CayleyTable({self.descriptor!r}, order={self.order})"


@dataclass(frozen=True)
class ElementSet:
    """A subset of a group's elements; ``subgroup_flag`` marks verified subgroups."""

    parent: CayleyTable
    members: frozenset
    subgroup_flag: bool

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members

    @property
    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class SylowFactor:
    """One Sylow subgroup of a nilpotent group, as an element set."""

    prime: int
    members: ElementSet
    abelian: bool


def _right_closure(arr, mask, frontier, gens) -> None:
    """Grow the boolean ``mask`` in place until it is closed under right
    multiplication by ``gens``; ``frontier`` lists the members whose products
    are not yet taken."""
    gens = np.asarray(gens, dtype=np.int64)
    frontier = np.asarray(frontier, dtype=np.int64)
    while frontier.size and gens.size:
        prods = arr[np.ix_(frontier, gens)].ravel()
        frontier = np.unique(prods[~mask[prods]])
        mask[frontier] = True


def _check_associative(arr, identity, name) -> None:
    """Light's associativity test on a Latin square with a two-sided identity.

    Light's criterion: the table is associative iff (x*a)*y == x*(a*y) for
    every x, y and every a in a generating set.  The elements that pass are
    closed under products (for passing a, b, (x*(a*b))*y == x*((a*b)*y)
    follows from the two checks), so it suffices to check the smallest
    element not yet covered, add it to the generators and grow the cover by
    right closure until it is the whole table.  For a group the cover is the
    subgroup the generators span, so at most log2(n) generators are checked,
    each with two n-by-n gathers.  The witness of a failure is the first
    ``(x, a, y)`` with ``(x*a)*y != x*(a*y)``, generators in index order and
    ``(x, y)`` in row-major order.
    """
    n = arr.shape[0]
    covered = np.zeros(n, dtype=bool)
    covered[identity] = True
    gens = []
    # the two n-by-n buffers are reused by every generator
    left = np.empty_like(arr)
    right = np.empty_like(arr)
    while not covered.all():
        a = int(np.argmin(covered))
        # entries are range-checked already, so "clip" never clips; it
        # spares the extra buffer that the default mode uses with out=
        np.take(arr, arr[:, a], axis=0, out=left, mode="clip")  # (x*a)*y
        np.take(arr, arr[a], axis=1, out=right, mode="clip")    # x*(a*y)
        if not np.array_equal(left, right):
            x, y = map(int, np.argwhere(left != right)[0])
            raise NotAssociative(
                f"{name}: ({x}*{a})*{y} != {x}*({a}*{y})",
                witness=(x, a, y),
            )
        gens.append(a)
        _right_closure(arr, covered, np.nonzero(covered)[0], gens)


def _index_entries(arr, name) -> np.ndarray:
    """An int64 copy of a table that is not an integer array, or
    ``NotClosed`` at the first entry (row-major) that is not an integer in
    0..n-1, such as 0.5 or 10**30."""
    n = arr.shape[0]
    out = np.empty(arr.shape, dtype=np.int64)
    for (i, j), v in np.ndenumerate(arr):
        if isinstance(v, np.generic):
            v = v.item()
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        if not (isinstance(v, int) and 0 <= v < n):
            raise NotClosed(
                f"{name}: entry {v!r} at ({i}, {j}) is not an index in 0..{n - 1}",
                witness=(i, j, v),
            )
        out[i, j] = v
    return out


def validate(raw, descriptor=None) -> CayleyTable:
    """Check the group axioms on a raw table and return a normalized group.

    Closure, two-sided identity, the Latin-square property and associativity
    are checked on every table.  Associativity is Light's test over a
    generating set (see ``_check_associative``); a failure raises
    ``NotAssociative`` with a triple ``(x, a, y)`` such that
    ``(x*a)*y != x*(a*y)``.  If the identity is not at index 0, elements are
    relabeled so that it is.

    Every entry must be an integer in 0..n-1; the first one that is not
    (row-major) raises ``NotClosed`` with witness ``(i, j, value)``.  An
    integer array is read as it is; any other table (fractions, integers
    beyond int64) is walked entry by entry, so 0.5 is never truncated.
    """
    arr = np.asarray(raw)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError("expected a square table of order >= 1")
    n = arr.shape[0]
    name = descriptor if descriptor is not None else f"table(order={n})"

    if arr.dtype.kind not in "iu":
        arr = _index_entries(arr, name)
    bad = (arr < 0) | (arr >= n)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise NotClosed(
            f"{name}: entry {int(arr[i, j])} at ({i}, {j}) is outside 0..{n - 1}",
            witness=(i, j, int(arr[i, j])),
        )
    # every entry is now an index, and the returned table is int32: narrow
    # early so the checks below move half the bytes
    arr = arr.astype(np.int32)

    idx = np.arange(n)
    row_ids = np.nonzero((arr == idx).all(axis=1))[0]
    identity = None
    for e in row_ids:
        if (arr[:, e] == idx).all():
            identity = int(e)
            break
    if identity is None:
        raise NoIdentity(f"{name}: no two-sided identity element")

    # row i holds every value exactly when all n flags seen[i, arr[i, :]] are
    # set; the same scatter with seen[j, arr[:, j]] checks the columns
    seen = np.zeros(n * n, dtype=bool)
    seen[(idx[:, None] * n + arr).reshape(-1)] = True
    bad_rows = np.flatnonzero(~seen.reshape(n, n).all(axis=1))
    if bad_rows.size:
        i = int(bad_rows[0])
        counts = np.bincount(arr[i], minlength=n)
        v = int(np.nonzero(counts > 1)[0][0])
        j1, j2 = map(int, np.nonzero(arr[i] == v)[0][:2])
        raise NotLatin(
            f"{name}: row {i} repeats value {v} at columns {j1} and {j2}",
            witness=(i, j1, j2),
        )
    seen[:] = False
    seen[(idx * n + arr).reshape(-1)] = True
    bad_cols = np.flatnonzero(~seen.reshape(n, n).all(axis=1))
    if bad_cols.size:
        j = int(bad_cols[0])
        counts = np.bincount(arr[:, j], minlength=n)
        v = int(np.nonzero(counts > 1)[0][0])
        i1, i2 = map(int, np.nonzero(arr[:, j] == v)[0][:2])
        raise NotLatin(
            f"{name}: column {j} repeats value {v} at rows {i1} and {i2}",
            witness=(i1, i2, j),
        )

    _check_associative(arr, identity, name)

    if identity != 0:
        sigma = idx.copy()
        sigma[0], sigma[identity] = identity, 0
        arr = sigma[arr[np.ix_(sigma, sigma)]]

    table = np.ascontiguousarray(arr, dtype=np.int32)
    table.flags.writeable = False
    return CayleyTable(n, table, name)


# --- centre, centralizers, conjugacy -----------------------------------------

def center(g: CayleyTable) -> ElementSet:
    """The set of elements commuting with everything."""
    z = g._memo.get("center")
    if z is None:
        mask = g.commuting.all(axis=1)
        z = ElementSet(g, frozenset(int(i) for i in np.nonzero(mask)[0]), True)
        g._memo["center"] = z
    return z


def centralizer(g: CayleyTable, x: int) -> ElementSet:
    """All elements commuting with x."""
    if not 0 <= x < g.order:
        raise IndexOutOfRange(f"element index {x} outside 0..{g.order - 1}")
    mask = g.commuting[x]
    return ElementSet(g, frozenset(int(i) for i in np.nonzero(mask)[0]), True)


def centralizer_size(g: CayleyTable, x: int) -> int:
    if not 0 <= x < g.order:
        raise IndexOutOfRange(f"element index {x} outside 0..{g.order - 1}")
    return int(centralizer_data(g).sizes[x])


@dataclass(frozen=True)
class CentralizerData:
    """Read-only per-element arrays: |C(x)|, |Z(C(x))|, whether C(x) is
    abelian, and an id that is equal exactly for equal centralizers."""

    sizes: np.ndarray
    center_sizes: np.ndarray
    abelian: np.ndarray
    ids: np.ndarray


def centralizer_data(g: CayleyTable) -> CentralizerData:
    """Centralizer sizes, centre sizes and identities, memoised on the table.

    Elements with equal rows of the commuting matrix have the same
    centralizer, so the packed rows are deduplicated first and the centre of
    each distinct centralizer is counted once: y in C(x) lies in Z(C(x))
    exactly when y's packed row contains x's.
    """
    data = g._memo.get("cdata")
    if data is None:
        comm = g.commuting
        packed = np.packbits(comm, axis=1)
        _, first, ids = np.unique(packed, axis=0,
                                  return_index=True, return_inverse=True)
        zsizes = np.empty(len(first), dtype=np.int64)
        for k, x in enumerate(first):
            zsizes[k] = ((packed[comm[x]] & packed[x]) == packed[x]).all(axis=1).sum()
        ids = ids.reshape(-1)
        sizes = comm.sum(axis=1)
        center_sizes = zsizes[ids]
        data = CentralizerData(sizes, center_sizes, center_sizes == sizes, ids)
        for arr in (sizes, center_sizes, data.abelian, ids):
            arr.flags.writeable = False
        g._memo["cdata"] = data
    return data


def conjugacy_classes(g: CayleyTable) -> tuple:
    """Partition of the elements into conjugacy classes, by smallest member.

    Each class is cross-checked against the orbit-stabiliser count
    |class| * |centralizer| = |G|.
    """
    classes = g._memo.get("classes")
    if classes is not None:
        return classes
    n = g.order
    t = g.table
    inv = g.inverses
    idx = np.arange(n)
    seen = np.zeros(n, dtype=bool)
    out = []
    for x in range(n):
        if seen[x]:
            continue
        conj = t[t[inv, x], idx]           # y -> (y^-1 * x) * y
        members = np.unique(conj)
        seen[members] = True
        csize = int(g.commuting[x].sum())
        if len(members) * csize != n:
            raise InternalInconsistency(
                f"orbit-stabiliser mismatch at element {x}: "
                f"{len(members)} * {csize} != {n}"
            )
        out.append(tuple(int(m) for m in members))
    classes = tuple(out)
    g._memo["classes"] = classes
    return classes


def element_orders(g: CayleyTable) -> np.ndarray:
    """Order of every element: all powers x^k advance together, and each
    element drops out when its power reaches the identity."""
    orders = g._memo.get("orders")
    if orders is None:
        t = g.table
        orders = np.ones(g.order, dtype=np.int64)
        todo = power = np.arange(1, g.order)
        k = 1
        while todo.size:
            power = t[power, todo]
            k += 1
            done = power == 0
            orders[todo[done]] = k
            todo, power = todo[~done], power[~done]
        orders.flags.writeable = False
        g._memo["orders"] = orders
    return orders


# --- nilpotency ---------------------------------------------------------------

def upper_central_series(g: CayleyTable) -> list:
    """Ascending central series Z_0 = {e} <= Z_1 <= ...; stops at a stall or at G.

    Membership step: x lies in the next level iff every commutator
    x^-1 (y^-1 x y) lands in the current level.  The n-by-n matrix of these
    commutators is built once, in int32; each level is then one gather of the
    current membership mask and a row-wise ``all``.
    """
    cached = g._memo.get("ucs")
    if cached is not None:
        return list(cached)
    n = g.order
    flat = g.table.ravel()
    inv = g.inverses.astype(np.int32)
    commutators = g.table[inv].T * np.int32(n)  # [x, y] -> (y^-1 * x) * n
    commutators += np.arange(n, dtype=np.int32)
    commutators = flat[commutators]             # [x, y] -> y^-1 * x * y
    commutators += (inv * np.int32(n))[:, None]
    commutators = flat[commutators]             # [x, y] -> x^-1 * y^-1 * x * y
    current = np.zeros(n, dtype=bool)
    current[0] = True
    levels = [current]
    while not current.all():
        nxt = current[commutators].all(axis=1)
        if np.array_equal(nxt, current):
            break
        current = nxt
        levels.append(current)
    sets = [
        ElementSet(g, frozenset(int(i) for i in np.nonzero(m)[0]), True)
        for m in levels
    ]
    g._memo["ucs"] = tuple(sets)
    return sets


def is_nilpotent(g: CayleyTable):
    """Return (flag, nilpotency class or None)."""
    cached = g._memo.get("nilp")
    if cached is None:
        series = upper_central_series(g)
        if len(series[-1]) == g.order:
            cached = (True, len(series) - 1)
        else:
            cached = (False, None)
        g._memo["nilp"] = cached
    return cached


# --- products and subgroups ----------------------------------------------------

def product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Raw direct-product table under the index convention (i, j) -> i*m + j."""
    m = t2.shape[0]
    t = t1[:, None, :, None] * m + t2[None, :, None, :]
    nm = t1.shape[0] * m
    return np.ascontiguousarray(t.reshape(nm, nm), dtype=np.int64)


def direct_product(g: CayleyTable, h: CayleyTable,
                   max_order: int = DEFAULT_ORDER_CAP) -> CayleyTable:
    """Direct product with pair index (i, j) -> i*|H| + j."""
    nm = g.order * h.order
    if nm > max_order:
        raise OrderOverflow(
            f"product order {nm} exceeds cap {max_order}"
        )
    table = np.ascontiguousarray(product_table(g.table, h.table), dtype=np.int32)
    table.flags.writeable = False
    out = CayleyTable(nm, table, f"product({g.descriptor},{h.descriptor})")
    expected = {
        a * h.order + b
        for a in center(g).members
        for b in center(h).members
    }
    if center(out).members != frozenset(expected):
        raise InternalInconsistency(
            "centre of a direct product is not the product of centres"
        )
    return out


def induced_group(g: CayleyTable, s: ElementSet) -> CayleyTable:
    """Relabel a subgroup-flagged set as a group of its own.

    The result's ``parent_map`` maps local indices back to parent indices;
    the parent identity comes first, so it stays at index 0.
    """
    if s.parent is not g:
        raise NotASubgroup("element set belongs to a different table")
    if not s.subgroup_flag:
        raise NotASubgroup("element set is not flagged as a subgroup")
    members = s.sorted_members
    if not members or members[0] != 0:
        raise NotASubgroup("subgroup must contain the identity")
    k = len(members)
    lookup = np.full(g.order, -1, dtype=np.int64)
    lookup[list(members)] = np.arange(k)
    sub = g.table[np.ix_(members, members)]
    new = lookup[sub]
    if (new < 0).any():
        i, j = map(int, np.argwhere(new < 0)[0])
        raise NotASubgroup(
            f"set is not closed: {members[i]} * {members[j]} escapes it",
            witness=(members[i], members[j], int(sub[i, j])),
        )
    table = np.ascontiguousarray(new, dtype=np.int32)
    table.flags.writeable = False
    return CayleyTable(
        k, table, f"subgroup(order={k}) of {g.descriptor}", parent_map=members
    )


def generate_subgroup(g: CayleyTable, seed) -> ElementSet:
    """The subgroup generated by a seed set (always contains the identity).

    In a finite group the right closure of {e} under the seed is the
    subgroup the seed generates.
    """
    seed = [int(x) for x in seed]
    for x in seed:
        if not 0 <= x < g.order:
            raise IndexOutOfRange(f"element index {x} outside 0..{g.order - 1}")
    mask = np.zeros(g.order, dtype=bool)
    mask[0] = True
    _right_closure(g.table, mask, [0], seed)
    return ElementSet(g, frozenset(int(i) for i in np.nonzero(mask)[0]), True)


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


def is_prime(p: int) -> bool:
    """Trial-division primality test (inputs here are small)."""
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


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


def sylow_decomposition(g: CayleyTable) -> list:
    """Sylow subgroups of a nilpotent group as p-power-order element sets.

    For each prime p dividing |G| the elements of p-power order are collected,
    verified to form a subgroup of the right size, and the product map across
    all factors is verified to be a bijection onto G.
    """
    nilp, _ = is_nilpotent(g)
    if not nilp:
        raise NotNilpotent(
            f"{g.descriptor}: Sylow decomposition by element orders needs nilpotency"
        )
    cached = g._memo.get("sylow")
    if cached is not None:
        return list(cached)
    n = g.order
    if n == 1:
        g._memo["sylow"] = ()
        return []
    orders = element_orders(g)
    comm = g.commuting
    factors = []
    member_lists = []
    for p, e in sorted(prime_factorization(n).items()):
        o = orders.copy()
        while True:
            div = o % p == 0
            if not div.any():
                break
            o[div] //= p
        members = tuple(int(i) for i in np.nonzero(o == 1)[0])
        if len(members) != p ** e:
            raise InternalInconsistency(
                f"p-power-order elements at p={p} number {len(members)}, "
                f"expected {p ** e}"
            )
        lookup = np.full(n, -1, dtype=np.int64)
        lookup[list(members)] = np.arange(len(members))
        if (lookup[g.table[np.ix_(members, members)]] < 0).any():
            raise InternalInconsistency(
                f"p-power-order elements at p={p} are not closed"
            )
        abelian = bool(comm[np.ix_(members, members)].all())
        eset = ElementSet(g, frozenset(members), True)
        factors.append(SylowFactor(p, eset, abelian))
        member_lists.append(members)
    products = np.zeros(1, dtype=np.int64)   # every product x_1 * x_2 * ... in turn
    for members in member_lists:
        products = g.table[np.ix_(products, members)].ravel()
    hits = np.bincount(products, minlength=n)
    if (hits > 1).any():
        raise InternalInconsistency("Sylow product map is not injective")
    if not hits.all():
        raise InternalInconsistency("Sylow product map is not surjective")
    g._memo["sylow"] = tuple(factors)
    return factors


def nonabelian_sylow_count(g: CayleyTable) -> int:
    return sum(1 for f in sylow_decomposition(g) if not f.abelian)
