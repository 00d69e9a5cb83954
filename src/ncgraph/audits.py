"""Exact structural audits of groups whose non-commuting graphs are isomorphic.

Both sides of each identity come from each group's own commuting matrix (read
through ``centralizer_data``, which is computed from that matrix and nothing
else) -- never from the other group or from the graph -- so the audits double
as an independent oracle on the group and graph modules.  All arithmetic is
exact integers; a failed identity is recorded as a ``violation`` verdict,
which the catalog scan counts and the command line turns into exit status 2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .cayley import (
    CayleyTable,
    _distinct_rows,
    _nonabelian_sylow_factors,
    center,
    centralizer,
    centralizer_data,
    conjugacy_classes,
    induced_group,
    is_ac_group,
    is_nilpotent,
    is_prime,
)
from .canon import Isomorphism, certificate
from .errors import (
    AbelianInput,
    InternalInconsistency,
    NotAnIsomorphism,
    PrimeMismatch,
    RegularGraph,
    WrongShape,
)
from .graphs import NcGraph, build_nc_graph
from .repunits import repunit


# --- small helpers -------------------------------------------------------------

def _first(mask):
    """Index of the first True entry of a boolean array, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _valuation(value: int, p: int):
    """Exponent of p in value; None for value 0 (every power divides 0)."""
    if value == 0:
        return None
    v = 0
    while value % p == 0:
        value //= p
        v += 1
    return v


# --- report records --------------------------------------------------------------

_SCALARS = frozenset({str, int, float, bool, type(None)})


class Record:
    """Base of the report dataclasses: ``to_dict`` is the JSON form of the
    fields in declaration order."""

    def to_dict(self):
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    """JSON form of a field value: records by their ``to_dict``, tuples and
    lists as lists, dicts value by value, scalars as they are."""
    if isinstance(value, (tuple, list)):
        return [v if type(v) in _SCALARS else _plain(v) for v in value]
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class AuditItem(Record):
    """One checked identity; passed None marks a recorded-only observation."""

    name: str
    passed: object
    lhs: object
    rhs: object
    witness: object = None


def _verdict(items) -> tuple:
    for item in items:
        if item.passed is False:
            return "violation", item.witness if item.witness is not None else item.name
    return "consistent", None


# --- pair audit -----------------------------------------------------------------

@dataclass(frozen=True)
class PairAudit(Record):
    """All per-pair identities evaluated on one (G, H, bijection) instance."""

    descriptor_a: str
    descriptor_b: str
    order_a: int
    order_b: int
    center_a: int
    center_b: int
    vertex_pairs: tuple   # (element_a, element_b, |C_G(a)|, |C_H(b)|) per vertex
    items: tuple          # AuditItem
    divisibility: tuple   # (element_a, divisor, dividend, ok) per vertex
    both_nilpotent: bool
    both_irregular: bool
    verdict: str
    witness: object


def _check_graph_fit(g: CayleyTable, graph: NcGraph, side: str):
    if build_nc_graph(g) != graph:
        raise NotAnIsomorphism(
            f"the bijection's {side} graph was not built from the given group"
        )


def _vertex_arrays(phi: Isomorphism):
    """Parent elements of each source vertex and of its image, as arrays."""
    elems_a = np.array(phi.source.vertices, dtype=np.int64)
    elems_b = np.array(phi.target.vertices, dtype=np.int64)[list(phi.mapping)]
    return elems_a, elems_b


def _divisibility_rows(na, za, zb, elems_a, ca, cb) -> tuple:
    """Per-vertex check that |C_H(phi(g))| divides (|g^G| - 1)(|Z(G)| - |Z(H)|),
    with zero divisible by everything: (element_a, divisor, dividend, ok) rows
    in vertex order, from the gathered centralizer sizes ``ca`` and ``cb`` of
    the source vertices ``elems_a`` and their images."""
    dividend = (na // ca - 1) * (za - zb)
    ok = (dividend % cb == 0).tolist()
    return tuple(zip(elems_a.tolist(), cb.tolist(), dividend.tolist(), ok))


def audit_isomorphic_pair(g_a: CayleyTable, g_b: CayleyTable,
                          phi: Isomorphism) -> PairAudit:
    """Evaluate the per-vertex identities that any graph isomorphism between
    non-commuting graphs must satisfy.

    Checked items (each an exact integer identity, quantified over vertices):

    - ``noncentral_counts``: |G| - |Z(G)| = |H| - |Z(H)|.
    - ``degree_gaps``: |G| - |C_G(g)| = |H| - |C_H(phi(g))| for every vertex.
    - ``centralizer_center_gaps``: |C_G(g)| - |Z(C_G(g))| equals the same
      quantity on the other side, whenever both centralizers are non-abelian.
    - ``center_gap_vs_whole_order``: recorded only (never asserted) --
      compares |C_G(g)| - |Z(C_G(g))| against |H| - |Z(C_H(phi(g)))|.
    - ``centralizer_graphs_isomorphic``: for each non-abelian centralizer,
      the non-commuting graphs of C_G(g) and C_H(phi(g)) share a certificate.
    - ``order_center_centralizer_biconditional``: |G| = |H|, |Z(G)| = |Z(H)|
      and |C_G(g)| = |C_H(phi(g))| are all equivalent, for every vertex.
    - ``divisibility``: |C_H(phi(g))| divides (|g^G| - 1)(|Z(G)| - |Z(H)|)
      for every vertex; the per-vertex rows are ``PairAudit.divisibility``.

    The per-vertex quantities are gathered from each group's
    ``centralizer_data`` through the bijection; every witness is the first
    failing vertex in source order.
    """
    _check_graph_fit(g_a, phi.source, "source")
    _check_graph_fit(g_b, phi.target, "target")
    na, nb = g_a.order, g_b.order
    za, zb = len(center(g_a)), len(center(g_b))
    items = []

    items.append(AuditItem(
        "noncentral_counts", na - za == nb - zb, na - za, nb - zb,
        witness=None if na - za == nb - zb else (na, za, nb, zb),
    ))

    elems_a, elems_b = _vertex_arrays(phi)
    data_a, data_b = centralizer_data(g_a), centralizer_data(g_b)
    ca, cb = data_a.sizes[elems_a], data_b.sizes[elems_b]
    vertex_pairs = tuple(zip(elems_a.tolist(), elems_b.tolist(), ca.tolist(), cb.tolist()))

    def first_pair(mask):
        i = _first(mask)
        return None if i is None else vertex_pairs[i]

    degree_witness = first_pair(na - ca != nb - cb)
    items.append(AuditItem(
        "degree_gaps", degree_witness is None, None, None, witness=degree_witness,
    ))

    ab_a, ab_b = data_a.abelian[elems_a], data_b.abelian[elems_b]
    gap_a = ca - data_a.center_sizes[elems_a]
    gap_b = cb - data_b.center_sizes[elems_b]
    both = ~ab_a & ~ab_b
    i = _first(both & (gap_a != gap_b))
    gap_witness = None if i is None else (*vertex_pairs[i][:2], int(gap_a[i]), int(gap_b[i]))
    items.append(AuditItem(
        "centralizer_center_gaps", gap_witness is None, None, None, witness=gap_witness,
    ))
    literal_compared = int(both.sum())
    if literal_compared == 0:
        literal_note = "vacuous (no vertex has non-abelian centralizers on both sides)"
    else:
        literal_matches = not (both & (gap_a != nb - data_b.center_sizes[elems_b])).any()
        literal_note = "matches" if literal_matches else "differs"
    items.append(AuditItem(
        "center_gap_vs_whole_order", None, literal_compared, None,
        witness=literal_note,
    ))

    # one item per distinct pair of centralizers, decided at its first vertex
    mixed = np.flatnonzero(~(ab_a & ab_b))
    keys = np.stack([data_a.ids[elems_a[mixed]], data_b.ids[elems_b[mixed]]], axis=1)
    firsts = mixed[np.sort(_distinct_rows(keys)[0])].tolist()
    graph_same, graph_witness = 0, None
    for i in firsts:
        elem_a, elem_b = vertex_pairs[i][:2]
        if ab_a[i] != ab_b[i]:
            if graph_witness is None:
                graph_witness = (elem_a, elem_b, "one centralizer abelian, one not")
            continue
        sub_a = induced_group(g_a, centralizer(g_a, elem_a))
        sub_b = induced_group(g_b, centralizer(g_b, elem_b))
        if certificate(build_nc_graph(sub_a)) == certificate(build_nc_graph(sub_b)):
            graph_same += 1
        elif graph_witness is None:
            graph_witness = (elem_a, elem_b)
    items.append(AuditItem(
        "centralizer_graphs_isomorphic", graph_witness is None,
        graph_same, len(firsts), witness=graph_witness,
    ))

    orders_equal = na == nb
    centers_equal = za == zb
    if centers_equal != orders_equal:
        bic_witness = (na, nb, za, zb)
    else:
        bic_witness = first_pair((ca == cb) != orders_equal)
    items.append(AuditItem(
        "order_center_centralizer_biconditional", bic_witness is None,
        orders_equal, centers_equal, witness=bic_witness,
    ))

    div_rows = _divisibility_rows(na, za, zb, elems_a, ca, cb)
    div_ok = all(r[3] for r in div_rows)
    div_witness = next((r[:3] for r in div_rows if not r[3]), None)
    items.append(AuditItem("divisibility", div_ok, None, None, witness=div_witness))

    verdict, witness = _verdict(items)
    return PairAudit(
        descriptor_a=g_a.descriptor,
        descriptor_b=g_b.descriptor,
        order_a=na, order_b=nb, center_a=za, center_b=zb,
        vertex_pairs=vertex_pairs,
        items=tuple(items),
        divisibility=div_rows,
        both_nilpotent=is_nilpotent(g_a)[0] and is_nilpotent(g_b)[0],
        both_irregular=not phi.source.is_regular and not phi.target.is_regular,
        verdict=verdict,
        witness=witness,
    )


# --- centralizer chains -----------------------------------------------------------

@dataclass(frozen=True)
class CentralizerChain:
    """Descending chain of centralizer subgroups ending at an AC-group.

    ``groups[0]`` is the root; each later group is the centralizer of the
    corresponding chosen element inside its predecessor (chosen[i] is a local
    element index of groups[i]).  If the root is already an AC-group the
    chain is just the root.
    """

    groups: tuple
    chosen: tuple

    @property
    def steps(self) -> int:
        return len(self.groups) - 1

    @property
    def orders(self) -> tuple:
        return tuple(g.order for g in self.groups)


def centralizer_chain(g: CayleyTable, picker=None) -> CentralizerChain:
    """Repeatedly pass to the centralizer of a chosen non-central element with
    non-abelian centralizer, until the current group is an AC-group.

    Candidates always exist while the current group is not AC, each step drops
    to a proper subgroup (so at most log2 |G| steps), and every step stays
    non-abelian; both facts are asserted.

    By default each step takes the least candidate.  ``picker(group,
    candidates)``, if given, is called with the current group and the
    ascending list of its candidate elements (local indices), and must return
    one of them; anything else raises ValueError.
    """
    if g.is_abelian:
        raise AbelianInput(f"{g.descriptor}: centralizer chains need a non-abelian root")
    groups = [g]
    chosen = []
    current = g
    max_steps = g.order.bit_length()
    while not is_ac_group(current):
        data = centralizer_data(current)
        candidates = np.flatnonzero((data.sizes < current.order) & ~data.abelian).tolist()
        if not candidates:
            raise InternalInconsistency(
                "group is not an AC-group yet no non-central element has a "
                "non-abelian centralizer"
            )
        x = candidates[0] if picker is None else picker(current, candidates)
        # True == 1 and 1.0 == 1, so membership alone lets them through
        if (isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Integral)
                or x not in candidates):
            raise ValueError("picker returned a non-candidate element")
        nxt = induced_group(current, centralizer(current, x))
        if nxt.order >= current.order:
            raise InternalInconsistency("centralizer step failed to shrink the group")
        groups.append(nxt)
        chosen.append(int(x))
        current = nxt
        if len(groups) - 1 > max_steps:
            raise InternalInconsistency(
                f"chain exceeded {max_steps} steps for order {g.order}"
            )
    return CentralizerChain(tuple(groups), tuple(chosen))


# --- single large centralizer -------------------------------------------------------

@dataclass(frozen=True)
class CentralizerWitness:
    """A non-central element whose centralizer squared reaches |G| * |Z(G)|."""

    element: int
    centralizer_order: int
    square: int
    bound: int

    @property
    def strict(self) -> bool:
        return self.square > self.bound


def large_centralizer_witness(g: CayleyTable):
    """The maximizing non-central element if |C_G(g)|^2 >= |G| * |Z(G)|, else None.

    For a nilpotent group with at least two non-abelian Sylow factors a strict
    witness must exist (pick non-central parts in two factors and multiply);
    that necessity is asserted here.
    """
    if g.is_abelian:
        raise AbelianInput(f"{g.descriptor}: witness search needs a non-abelian group")
    sizes = centralizer_data(g).sizes
    # argmax keeps the lowest index among equal sizes
    best_elem = int(np.argmax(np.where(sizes < g.order, sizes, -1)))
    best_size = int(sizes[best_elem])
    bound = g.order * len(center(g))
    witness = None
    if best_size * best_size >= bound:
        witness = CentralizerWitness(best_elem, best_size, best_size * best_size, bound)
    two_factors = is_nilpotent(g)[0] and len(_nonabelian_sylow_factors(g)) >= 2
    if two_factors and (witness is None or not witness.strict):
        raise InternalInconsistency(
            f"{g.descriptor}: two non-abelian Sylow factors but no strict "
            f"centralizer witness"
        )
    return witness


# --- same-prime shape audit ---------------------------------------------------------

def _nonabelian_sylow_shape(g: CayleyTable, k: int) -> list:
    """The non-abelian Sylow factors of ``g``, which must be nilpotent with
    exactly ``k`` (1 or 2) of them."""
    if not is_nilpotent(g)[0]:
        raise WrongShape(f"{g.descriptor}: not nilpotent")
    factors = _nonabelian_sylow_factors(g)
    if len(factors) != k:
        expected = ("one non-abelian Sylow factor", "two non-abelian Sylow factors")[k - 1]
        raise WrongShape(
            f"{g.descriptor}: expected exactly {expected}, found {len(factors)}"
        )
    return factors


def _prime_power_split(g: CayleyTable) -> tuple:
    """Split G = P x A, P its one non-abelian Sylow p-part and A abelian, into
    (p, n, r, |A|, class exponents): |P| = p^n, |Z(P)| = p^r, and the
    ascending e with some conjugacy class of size p^e."""
    factor, = _nonabelian_sylow_shape(g, 1)
    p = factor.prime

    def exponent(size, message):
        e = _valuation(size, p)
        if p ** e != size:
            raise InternalInconsistency(message)
        return e

    p_part = induced_group(g, factor.members)
    n = exponent(p_part.order, "Sylow factor order is not a prime power")
    r = exponent(len(center(p_part)), "centre of a p-group has non-p-power order")
    cofactor = g.order // p_part.order
    exps = {exponent(len(cls), f"{g.descriptor}: class size {len(cls)} is not a power of {p}")
            for cls in conjugacy_classes(g) if len(cls) > 1}
    return p, n, r, cofactor, tuple(sorted(exps))


@dataclass(frozen=True)
class SamePrimeAudit(Record):
    """Identities tying two (p-group x abelian) shapes with isomorphic graphs."""

    prime: int
    order_exp_a: int
    center_exp_a: int
    order_exp_b: int
    center_exp_b: int
    cofactor_a: int
    cofactor_b: int
    class_exps_a: tuple
    class_exps_b: tuple
    items: tuple
    verdict: str
    witness: object


def same_prime_audit(g_a: CayleyTable, g_b: CayleyTable,
                     phi: Isomorphism) -> SamePrimeAudit:
    """Audit the shape where both groups are (non-abelian p-group) x (abelian)
    for one shared prime p and both graphs are irregular.

    With |G| = |A| p^n, |Z(G)| = |A| p^r, class sizes p^{a_1} < ... < p^{a_k}
    (and m, s, |B|, b_i on the other side), the checked identities are:

    - ``noncentral_gap_factored``:  |A| p^r (p^{n-r} - 1) = |B| p^s (p^{m-s} - 1),
      each side cross-checked against the directly counted |G| - |Z(G)|.
    - ``degree_by_class_step`` (per aligned exponent pair):
      |A| p^{n-a_i} (p^{a_i} - 1) = |B| p^{m-b_i} (p^{b_i} - 1),
      cross-checked against a directly computed vertex degree.
    - ``class_count_alignment``: the count of elements in classes of size
      p^{a_i} matches the count for p^{b_i}, so sorting really aligns them.
    - conclusions ``center_exponents_equal`` (r = s),
      ``centralizer_exponents_match`` (n - a_i = m - b_i),
      ``cofactor_orders_equal`` (|A| = |B|),
      ``p_part_orders_equal`` (n = m).
    """
    _check_graph_fit(g_a, phi.source, "source")
    _check_graph_fit(g_b, phi.target, "target")
    if phi.source.is_regular or phi.target.is_regular:
        raise RegularGraph("this audit requires both graphs irregular")
    p, n, r, size_a, a_exps = _prime_power_split(g_a)
    q, m, s, size_b, b_exps = _prime_power_split(g_b)
    if p != q:
        raise PrimeMismatch(f"non-abelian Sylow primes differ: {p} vs {q}")
    if len(a_exps) < 2 or len(b_exps) < 2:
        raise RegularGraph("irregular graphs need at least two distinct class sizes")
    items = []

    lhs = size_a * p ** r * (p ** (n - r) - 1)
    rhs = size_b * p ** s * (p ** (m - s) - 1)
    direct_a = g_a.order - len(center(g_a))
    direct_b = g_b.order - len(center(g_b))
    if lhs != direct_a or rhs != direct_b:
        raise InternalInconsistency(
            "factored non-central count disagrees with the direct count"
        )
    items.append(AuditItem("noncentral_gap_factored", lhs == rhs, lhs, rhs))

    if len(a_exps) != len(b_exps):
        items.append(AuditItem(
            "class_count_alignment", False, list(a_exps), list(b_exps),
            witness=(len(a_exps), len(b_exps)),
        ))
    else:
        counts_ok = True
        count_witness = None
        for ae, be in zip(a_exps, b_exps):
            count_a = sum(len(c) for c in conjugacy_classes(g_a) if len(c) == p ** ae)
            count_b = sum(len(c) for c in conjugacy_classes(g_b) if len(c) == p ** be)
            if count_a != count_b and counts_ok:
                counts_ok, count_witness = False, (ae, be, count_a, count_b)
        items.append(AuditItem(
            "class_count_alignment", counts_ok, list(a_exps), list(b_exps),
            witness=count_witness,
        ))
        for ae, be in zip(a_exps, b_exps):
            lhs_i = size_a * p ** (n - ae) * (p ** ae - 1)
            rhs_i = size_b * p ** (m - be) * (p ** be - 1)
            sample = next(c[0] for c in conjugacy_classes(g_a) if len(c) == p ** ae)
            degree_direct = g_a.order - int(centralizer_data(g_a).sizes[sample])
            if lhs_i != degree_direct:
                raise InternalInconsistency(
                    "factored degree disagrees with the graph degree"
                )
            items.append(AuditItem(
                f"degree_by_class_step[{ae}]", lhs_i == rhs_i, lhs_i, rhs_i,
            ))
        a1, a2 = a_exps[0], a_exps[1]
        b1, b2 = b_exps[0], b_exps[1]
        lhs_d = size_a * (p ** (n - a1) - p ** (n - a2))
        rhs_d = size_b * (p ** (m - b1) - p ** (m - b2))
        items.append(AuditItem(
            "smallest_degrees_difference", lhs_d == rhs_d, lhs_d, rhs_d,
        ))
        items.append(AuditItem("center_exponents_equal", r == s, r, s))
        match_ok = all(n - ae == m - be for ae, be in zip(a_exps, b_exps))
        items.append(AuditItem(
            "centralizer_exponents_match", match_ok,
            [n - ae for ae in a_exps], [m - be for be in b_exps],
        ))
        items.append(AuditItem("cofactor_orders_equal", size_a == size_b, size_a, size_b))
        items.append(AuditItem("p_part_orders_equal", n == m, n, m))

    verdict, witness = _verdict(items)
    return SamePrimeAudit(
        prime=p,
        order_exp_a=n, center_exp_a=r, order_exp_b=m, center_exp_b=s,
        cofactor_a=size_a, cofactor_b=size_b,
        class_exps_a=a_exps, class_exps_b=b_exps,
        items=tuple(items), verdict=verdict, witness=witness,
    )


# --- two non-abelian Sylow factors ----------------------------------------------------

@dataclass(frozen=True)
class TwoSylowAudit(Record):
    """Product identities inside H = Q1 x Q2 x B (two non-abelian Sylow parts)."""

    descriptor: str
    prime_1: int
    prime_2: int
    order_q1: int
    order_q2: int
    cofactor: int
    element_1: int   # element index in H, non-central part in Q1
    element_2: int   # element index in H, non-central part in Q2
    items: tuple
    valuations: tuple  # (item name, side, valuation) rows for valuation_prime
    valuation_prime: int
    verdict: str
    witness: object


def _abelian_centralizer_element(q: CayleyTable):
    """Smallest non-central element whose centralizer is abelian, or None."""
    data = centralizer_data(q)
    return _first((data.sizes < q.order) & data.abelian)


def two_nonabelian_sylow_audit(h: CayleyTable) -> TwoSylowAudit:
    """Audit a nilpotent group H = Q1 x Q2 x B with exactly two non-abelian
    Sylow factors Q1, Q2 (primes ascending) and abelian remainder B.

    For h1 in Q1 and h2 in Q2 -- the smallest non-central elements whose
    centralizers inside their own factor are abelian -- the following hold
    because centralizers and centres factor through direct products, and are
    checked with the left side computed in H's full table and the right side
    from the factors:

    - ``centralizer_center_gap``:
      |C_H(h2)| - |Z(C_H(h2))| = (|Q1| - |Z(Q1)|) |C_Q2(h2)| |B|
    - ``center_growth``:
      |Z(C_H(h1))| - |Z(H)| = (|C_Q1(h1)| - |Z(Q1)|) |Z(Q2)| |B|
    - ``whole_minus_centralizer``:
      |H| - |C_H(h1)| = (|Q1| - |C_Q1(h1)|) |Q2| |B|

    The report also lists the valuation of each side at Q1's prime
    (``valuation_prime``), the lens through which these quantities expose
    order mismatches.
    """
    nonabelian = _nonabelian_sylow_shape(h, 2)
    q1 = induced_group(h, nonabelian[0].members)
    q2 = induced_group(h, nonabelian[1].members)
    cofactor = h.order // (q1.order * q2.order)
    local_1 = _abelian_centralizer_element(q1)
    local_2 = _abelian_centralizer_element(q2)
    if local_1 is None or local_2 is None:
        raise WrongShape(
            f"{h.descriptor}: a factor has no non-central element with abelian "
            f"centralizer; the product identities need one"
        )
    h1 = int(q1.parent_map[local_1])
    h2 = int(q2.parent_map[local_2])

    data_h = centralizer_data(h)
    ch1, ch2 = int(data_h.sizes[h1]), int(data_h.sizes[h2])
    z_ch1, z_ch2 = int(data_h.center_sizes[h1]), int(data_h.center_sizes[h2])
    zh = len(center(h))

    zq1, zq2 = len(center(q1)), len(center(q2))
    cq1 = int(centralizer_data(q1).sizes[local_1])
    cq2 = int(centralizer_data(q2).sizes[local_2])

    items = [
        AuditItem(
            "centralizer_center_gap",
            ch2 - z_ch2 == (q1.order - zq1) * cq2 * cofactor,
            ch2 - z_ch2, (q1.order - zq1) * cq2 * cofactor,
        ),
        AuditItem(
            "center_growth",
            z_ch1 - zh == (cq1 - zq1) * zq2 * cofactor,
            z_ch1 - zh, (cq1 - zq1) * zq2 * cofactor,
        ),
        AuditItem(
            "whole_minus_centralizer",
            h.order - ch1 == (q1.order - cq1) * q2.order * cofactor,
            h.order - ch1, (q1.order - cq1) * q2.order * cofactor,
        ),
    ]
    p = nonabelian[0].prime
    valuations = []
    for item in items:
        valuations.append((item.name, "lhs", _valuation(item.lhs, p)))
        valuations.append((item.name, "rhs", _valuation(item.rhs, p)))

    verdict, witness = _verdict(items)
    return TwoSylowAudit(
        descriptor=h.descriptor,
        prime_1=nonabelian[0].prime, prime_2=nonabelian[1].prime,
        order_q1=q1.order, order_q2=q2.order, cofactor=cofactor,
        element_1=h1, element_2=h2,
        items=tuple(items), valuations=tuple(valuations),
        valuation_prime=p, verdict=verdict, witness=witness,
    )


# --- cross-prime parameter scan ---------------------------------------------------------

@dataclass(frozen=True)
class CrossPrimeScan(Record):
    """Transcript of the exhaustive cross-prime parameter scan.

    A "candidate" is a parameter tuple (p, q, n, r, |A|, m, s, |B|) with
    p != q and |A|(p^n - p^r) = |B|(q^m - q^s) -- the two groups would have
    the same number of non-central elements.  A candidate "survives" if it
    also supports two distinct class exponents a1 != a2 whose induced
    gcd-identities and repunit-ratio identities all hold; survival would
    contradict the at-most-one-exponent-pair property of repunit equalities,
    so the expected survivor count is zero.
    """

    max_prime: int
    max_exp: int
    max_cofactor: int
    prime_pairs: tuple
    configs_per_side: tuple      # (p, q, lhs count, rhs count, matches)
    candidates: int
    candidates_with_pairs: int
    pairs_analyzed: int
    survivors: tuple
    repunit_coincidences: tuple  # (base1, L1, base2, L2, value)
    uniqueness_rows: tuple       # (base1, base2, pairs found) over coincidence bases
    verdict: str


def cross_prime_scan(max_prime: int = 7, max_exp: int = 8,
                     max_cofactor: int = 50) -> CrossPrimeScan:
    """Exhaustively scan cross-prime parameter tuples and verify none survives.

    For each ordered pair of distinct primes p, q up to max_prime, each side
    enumerates (exponent n <= max_exp, centre exponent 1 <= r <= n-2, cofactor
    size coprime to the prime, <= max_cofactor).  Sides are matched by the
    exact value |A|(p^n - p^r) = |B|(q^m - q^s); every match is then probed
    for aligned class-exponent pairs a != a' (with their forced partners b, b')
    and the gcd/repunit identities those would imply.  Along the way every
    repunit equality repunit(p^u, L1) = repunit(q^v, L2) with both lengths at
    least 2 met on the divisor grid is recorded, and for each such base pair
    the box is re-enumerated to confirm at most one length pair exists.
    """
    primes = [p for p in range(2, max_prime + 1) if is_prime(p)]
    prime_pairs = [(p, q) for p in primes for q in primes if p != q]
    configs_per_side = []
    candidates = 0
    candidates_with_pairs = 0
    pairs_analyzed = 0
    survivors = []
    coincidences = set()

    def side_configs(p):
        out = {}
        for n in range(3, max_exp + 1):
            for r in range(1, n - 1):
                gap = p ** n - p ** r
                for a in range(1, max_cofactor + 1):
                    if a % p == 0:
                        continue
                    out.setdefault(a * gap, []).append((n, r, a))
        return out

    for p, q in prime_pairs:
        lhs = side_configs(p)
        rhs = side_configs(q)
        nl = sum(len(v) for v in lhs.values())
        nr = sum(len(v) for v in rhs.values())
        matches = 0
        for value in lhs.keys() & rhs.keys():
            for n, r, size_a in lhs[value]:
                for m, s, size_b in rhs[value]:
                    matches += 1
                    candidates += 1
                    # forced partner b for each class exponent a
                    pairs = []
                    for a in range(1, n - r):
                        lhs8 = size_a * (p ** (n - a) - p ** r)
                        for b in range(1, m - s):
                            if size_b * (q ** (m - b) - q ** s) == lhs8:
                                pairs.append((a, b))
                    # record divisor-grid repunit coincidences once per config
                    for u in _divisors(n - r):
                        for v in _divisors(m - s):
                            l1, l2 = (n - r) // u, (m - s) // v
                            if l1 < 2 or l2 < 2:
                                continue
                            r1 = repunit(p ** u, l1)
                            if r1 == repunit(q ** v, l2):
                                coincidences.add((p ** u, l1, q ** v, l2, r1))
                    if len(pairs) >= 2:
                        candidates_with_pairs += 1
                    for i in range(len(pairs)):
                        for j in range(i + 1, len(pairs)):
                            (a1, b1), (a2, b2) = pairs[i], pairs[j]
                            pairs_analyzed += 1
                            u = math.gcd(a1, a2, n - r)
                            v = math.gcd(b1, b2, m - s)
                            ok_gcd = (size_a * p ** r * (p ** u - 1)
                                      == size_b * q ** s * (q ** v - 1))
                            ok_full = ((p ** (n - r) - 1) * (q ** v - 1)
                                       == (q ** (m - s) - 1) * (p ** u - 1))
                            ok_class = all(
                                (p ** (n - ai - r) - 1) * (q ** v - 1)
                                == (q ** (m - bi - s) - 1) * (p ** u - 1)
                                for ai, bi in ((a1, b1), (a2, b2))
                            )
                            if ok_gcd and ok_full and ok_class:
                                survivors.append(
                                    (p, q, n, r, size_a, m, s, size_b,
                                     a1, b1, a2, b2, u, v)
                                )
        configs_per_side.append((p, q, nl, nr, matches))

    uniqueness_rows = []
    for base1, _, base2, _, _ in sorted(coincidences):
        found = []
        for l1 in range(2, max_exp + 1):
            r1 = repunit(base1, l1)
            for l2 in range(2, max_exp + 1):
                if r1 == repunit(base2, l2):
                    found.append((l1, l2))
        if len(found) > 1:
            raise InternalInconsistency(
                f"bases ({base1}, {base2}) admit multiple repunit length "
                f"pairs {found} within the scan box"
            )
        row = (base1, base2, len(found))
        if row not in uniqueness_rows:
            uniqueness_rows.append(row)

    return CrossPrimeScan(
        max_prime=max_prime, max_exp=max_exp, max_cofactor=max_cofactor,
        prime_pairs=tuple(prime_pairs),
        configs_per_side=tuple(configs_per_side),
        candidates=candidates,
        candidates_with_pairs=candidates_with_pairs,
        pairs_analyzed=pairs_analyzed,
        survivors=tuple(survivors),
        repunit_coincidences=tuple(sorted(coincidences)),
        uniqueness_rows=tuple(uniqueness_rows),
        verdict="empty" if not survivors else "survivors-found",
    )


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]
