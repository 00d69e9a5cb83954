import numpy as np
import pytest

import ncgraph as ng
from ncgraph import audits


def iso_pair(name_a, name_b, max_order=512):
    g_a = ng.construct(name_a, max_order=max_order)
    g_b = ng.construct(name_b, max_order=max_order)
    phi = ng.find_isomorphism(ng.build_nc_graph(g_a), ng.build_nc_graph(g_b))
    assert phi is not None
    return g_a, g_b, phi


class TestGraphFit:
    """The audits refuse a bijection whose graphs were built from other groups."""

    def test_pair_audit_rejects_swapped_groups(self):
        g_a, g_b, phi = iso_pair("dihedral(8)", "dicyclic(4)")
        with pytest.raises(ng.NotAnIsomorphism, match="not built from the given group"):
            ng.audit_isomorphic_pair(g_b, g_a, phi)

    def test_same_prime_audit_rejects_swapped_groups(self):
        g_a, g_b, phi = iso_pair("dihedral(8)", "dicyclic(4)")
        with pytest.raises(ng.NotAnIsomorphism, match="not built from the given group"):
            ng.same_prime_audit(g_b, g_a, phi)

    def test_fresh_table_of_the_same_group_fits(self):
        _, g_b, phi = iso_pair("dihedral(8)", "dicyclic(4)")
        audit = ng.audit_isomorphic_pair(ng.construct("dihedral(8)"), g_b, phi)
        assert audit.verdict == "consistent"


class TestPairAudit:
    def test_dihedral_dicyclic_16(self):
        g_a, g_b, phi = iso_pair("dihedral(8)", "dicyclic(4)")
        audit = ng.audit_isomorphic_pair(g_a, g_b, phi)
        assert audit.verdict == "consistent"
        assert audit.both_nilpotent
        assert audit.both_irregular
        by_name = {i.name: i for i in audit.items}
        assert by_name["noncentral_counts"].lhs == 14
        assert by_name["degree_gaps"].passed is True
        assert by_name["centralizer_center_gaps"].passed is True
        # the recorded-only comparison is vacuous here: every centralizer in
        # these two groups is abelian
        literal = by_name["center_gap_vs_whole_order"]
        assert literal.passed is None
        assert literal.lhs == 0
        assert "vacuous" in literal.witness

    def test_vertex_pairs_track_centralizer_sizes(self):
        g_a, g_b, phi = iso_pair("dihedral(8)", "dicyclic(4)")
        audit = ng.audit_isomorphic_pair(g_a, g_b, phi)
        assert len(audit.vertex_pairs) == 14
        for elem_a, elem_b, ca, cb in audit.vertex_pairs:
            assert ca == ng.centralizer_size(g_a, elem_a)
            assert cb == ng.centralizer_size(g_b, elem_b)
            assert ca == cb  # equal orders force equal centralizers here

    def test_divisibility_rows_trivial_for_equal_orders(self):
        g_a, g_b, phi = iso_pair("dihedral(6)", "dicyclic(3)")
        rows = ng.audit_isomorphic_pair(g_a, g_b, phi).divisibility
        assert len(rows) == 10
        for elem_a, cb, dividend, ok in rows:
            assert dividend == 0 and ok

    def test_nonabelian_centralizers_compared(self):
        # two order-216 groups with isomorphic graphs whose vertex
        # centralizers include non-abelian ones
        g_a, g_b, phi = iso_pair("product(dihedral(4),heisenberg(3,1))",
                                 "product(dicyclic(2),heisenberg(3,1))")
        audit = ng.audit_isomorphic_pair(g_a, g_b, phi)
        assert audit.verdict == "consistent"
        by_name = {i.name: i for i in audit.items}
        graphs_item = by_name["centralizer_graphs_isomorphic"]
        assert graphs_item.passed is True
        assert graphs_item.rhs > 0          # some graphs really got compared
        assert graphs_item.lhs == graphs_item.rhs
        literal = by_name["center_gap_vs_whole_order"]
        assert literal.lhs == 66            # non-vacuous on 66 vertices
        assert literal.witness == "differs"

    def test_non_nilpotent_pair_still_audits(self):
        g_a, g_b, phi = iso_pair("dihedral(6)", "dicyclic(3)")
        audit = ng.audit_isomorphic_pair(g_a, g_b, phi)
        assert audit.verdict == "consistent"
        assert not audit.both_nilpotent

    def test_to_dict_is_json_ready(self):
        import json
        g_a, g_b, phi = iso_pair("dihedral(8)", "dicyclic(4)")
        audit = ng.audit_isomorphic_pair(g_a, g_b, phi)
        text = json.dumps(audit.to_dict())
        assert "noncentral_counts" in text


def unchecked_bijection(source, target, mapping):
    """An Isomorphism object whose edge check was skipped, so that the audits
    can be driven into every failing branch."""
    phi = object.__new__(ng.Isomorphism)
    for name, value in (("source", source), ("target", target), ("mapping", tuple(mapping))):
        object.__setattr__(phi, name, value)
    return phi


def old_pair_audit(g_a, g_b, phi):
    """The per-vertex loops that audit_isomorphic_pair replaced, reading the
    commuting matrices directly.  Returns (vertex_pairs, items, divisibility)."""
    comm_a, comm_b = g_a.commuting, g_b.commuting
    na, nb = g_a.order, g_b.order
    za, zb = len(ng.center(g_a)), len(ng.center(g_b))
    items = [ng.AuditItem(
        "noncentral_counts", na - za == nb - zb, na - za, nb - zb,
        witness=None if na - za == nb - zb else (na, za, nb, zb),
    )]
    vertex_pairs = []
    degree_ok, degree_witness = True, None
    for i, elem_a in enumerate(phi.source.vertices):
        elem_b = phi.target.vertices[phi.mapping[i]]
        ca, cb = int(comm_a[elem_a].sum()), int(comm_b[elem_b].sum())
        vertex_pairs.append((elem_a, elem_b, ca, cb))
        if na - ca != nb - cb and degree_ok:
            degree_ok, degree_witness = False, (elem_a, elem_b, ca, cb)
    items.append(ng.AuditItem("degree_gaps", degree_ok, None, None, witness=degree_witness))
    gap_ok, gap_witness = True, None
    literal_matches, literal_compared = True, 0
    seen = {}
    graph_ok, graph_witness = True, None
    for elem_a, elem_b, ca, cb in vertex_pairs:
        mem_a = ng.centralizer(g_a, elem_a)
        mem_b = ng.centralizer(g_b, elem_b)
        sub_a = comm_a[np.ix_(mem_a, mem_a)]
        sub_b = comm_b[np.ix_(mem_b, mem_b)]
        ab_a, ab_b = bool(sub_a.all()), bool(sub_b.all())
        if ab_a and ab_b:
            continue
        z_ca, z_cb = int(sub_a.all(axis=1).sum()), int(sub_b.all(axis=1).sum())
        if not ab_a and not ab_b:
            if ca - z_ca != cb - z_cb and gap_ok:
                gap_ok, gap_witness = False, (elem_a, elem_b, ca - z_ca, cb - z_cb)
            literal_compared += 1
            if ca - z_ca != nb - z_cb:
                literal_matches = False
        key = (mem_a, mem_b)
        if key in seen:
            continue
        if ab_a != ab_b:
            seen[key] = False
            if graph_ok:
                graph_ok, graph_witness = False, (elem_a, elem_b, "one centralizer abelian, one not")
            continue
        cert_a = ng.certificate(ng.build_nc_graph(ng.induced_group(g_a, ng.centralizer(g_a, elem_a))))
        cert_b = ng.certificate(ng.build_nc_graph(ng.induced_group(g_b, ng.centralizer(g_b, elem_b))))
        seen[key] = cert_a == cert_b
        if not seen[key] and graph_ok:
            graph_ok, graph_witness = False, (elem_a, elem_b)
    items.append(ng.AuditItem("centralizer_center_gaps", gap_ok, None, None, witness=gap_witness))
    if literal_compared == 0:
        note = "vacuous (no vertex has non-abelian centralizers on both sides)"
    else:
        note = "matches" if literal_matches else "differs"
    items.append(ng.AuditItem("center_gap_vs_whole_order", None, literal_compared, None,
                              witness=note))
    items.append(ng.AuditItem("centralizer_graphs_isomorphic", graph_ok,
                              sum(1 for v in seen.values() if v), len(seen),
                              witness=graph_witness))
    orders_equal, centers_equal = na == nb, za == zb
    bic_ok, bic_witness = centers_equal == orders_equal, None
    if not bic_ok:
        bic_witness = (na, nb, za, zb)
    for elem_a, elem_b, ca, cb in vertex_pairs:
        if (ca == cb) != orders_equal and bic_ok:
            bic_ok, bic_witness = False, (elem_a, elem_b, ca, cb)
    items.append(ng.AuditItem("order_center_centralizer_biconditional", bic_ok,
                              orders_equal, centers_equal, witness=bic_witness))
    rows = []
    for elem_a, elem_b, ca, cb in vertex_pairs:
        dividend = (na // ca - 1) * (za - zb)
        rows.append((elem_a, cb, dividend, dividend % cb == 0))
    div_witness = next((r[:3] for r in rows if not r[3]), None)
    items.append(ng.AuditItem("divisibility", div_witness is None, None, None,
                              witness=div_witness))
    return tuple(vertex_pairs), tuple(items), tuple(rows)


class TestPairAuditOracle:
    """audit_isomorphic_pair against the per-vertex loops it replaced, on
    verified isomorphisms and on seeded bijections that are not ones."""

    PAIRS = [
        ("dihedral(8)", "dicyclic(4)"),
        ("product(dihedral(4),heisenberg(3,1))", "product(dicyclic(2),heisenberg(3,1))"),
        ("heisenberg(3,1)", "product(dihedral(4),cyclic(4))"),   # 27 vs 32, 24 vertices each
        ("dihedral(12)", "dicyclic(6)"),
    ]

    def test_items_and_witnesses_match_the_loops(self):
        rng = np.random.default_rng(17)
        failed = set()
        for name_a, name_b in self.PAIRS:
            g_a, g_b = ng.construct(name_a), ng.construct(name_b)
            source, target = ng.build_nc_graph(g_a), ng.build_nc_graph(g_b)
            assert source.num_vertices == target.num_vertices
            mappings = [rng.permutation(source.num_vertices).tolist() for _ in range(4)]
            phi = ng.find_isomorphism(source, target)
            if phi is not None:
                mappings.append(phi.mapping)
            for mapping in mappings:
                bij = unchecked_bijection(source, target, mapping)
                audit = ng.audit_isomorphic_pair(g_a, g_b, bij)
                pairs, items, rows = old_pair_audit(g_a, g_b, bij)
                assert audit.vertex_pairs == pairs
                assert [i.to_dict() for i in audit.items] == [i.to_dict() for i in items]
                assert audit.divisibility == rows
                assert all(type(v) is int for p in audit.vertex_pairs for v in p)
                failed |= {i.name for i in audit.items if i.passed is False}
        assert failed == {"degree_gaps", "centralizer_center_gaps",
                          "centralizer_graphs_isomorphic",
                          "order_center_centralizer_biconditional", "divisibility"}


def first_failure_witness(audit):
    """The witness of the first failed item, or its name if it has none."""
    item = next(i for i in audit.items if i.passed is False)
    return item.witness if item.witness is not None else item.name


class TestViolationVerdict:
    """A failed identity does not raise: the audit returns a "violation"
    verdict whose witness is that of the first failed item."""

    def test_pair_audit_returns_violation_on_a_bijection_that_is_not_one(self):
        g_a, g_b = ng.construct("dihedral(12)"), ng.construct("dicyclic(6)")
        source, target = ng.build_nc_graph(g_a), ng.build_nc_graph(g_b)
        mapping = np.random.default_rng(5).permutation(source.num_vertices).tolist()
        bij = unchecked_bijection(source, target, mapping)
        audit = ng.audit_isomorphic_pair(g_a, g_b, bij)
        failed = [i.name for i in audit.items if i.passed is False]
        assert audit.verdict == "violation" and failed
        assert audit.witness == first_failure_witness(audit)

    def test_same_prime_audit_returns_violation_across_orders(self):
        g_a, g_b = ng.construct("dihedral(8)"), ng.construct("dihedral(16)")
        source, target = ng.build_nc_graph(g_a), ng.build_nc_graph(g_b)
        bij = unchecked_bijection(source, target, range(source.num_vertices))
        audit = ng.same_prime_audit(g_a, g_b, bij)
        failed = [i.name for i in audit.items if i.passed is False]
        assert audit.verdict == "violation" and "p_part_orders_equal" in failed
        assert audit.witness == first_failure_witness(audit)


class TestCentralizerChain:
    def test_ac_group_has_zero_steps(self):
        chain = ng.centralizer_chain(ng.construct("dihedral(8)"))
        assert chain.orders == (16,)
        assert chain.steps == 0
        assert chain.chosen == ()

    def test_heisenberg_243_descends_once(self):
        chain = ng.centralizer_chain(ng.construct("heisenberg(3,2)"))
        assert chain.orders == (243, 81)
        assert chain.steps == 1

    def test_product_of_nonabelian_descends(self):
        g = ng.construct("product(dicyclic(2),heisenberg(3,1))")
        chain = ng.centralizer_chain(g)
        assert chain.steps >= 1
        assert chain.orders[0] == 216
        # strictly decreasing and within the log2 bound
        for a, b in zip(chain.orders, chain.orders[1:]):
            assert b < a and a % b == 0
        assert chain.steps <= g.order.bit_length()

    def test_abelian_rejected(self):
        with pytest.raises(ng.AbelianInput):
            ng.centralizer_chain(ng.construct("cyclic(6)"))

    def test_seeded_pickers_always_terminate(self, seeded_picker):
        g = ng.construct("product(dicyclic(2),heisenberg(3,1))")
        lengths = set()
        for seed in range(10):
            chain = ng.centralizer_chain(g, picker=seeded_picker(seed))
            lengths.add(chain.steps)
            assert chain.steps <= g.order.bit_length()
        assert lengths  # every run terminated

    def test_bad_picker_rejected(self):
        g = ng.construct("heisenberg(3,2)")
        with pytest.raises(ValueError):
            ng.centralizer_chain(g, picker=lambda grp, candidates: -1)

    @pytest.mark.parametrize("choice", [True, np.True_, 1.0, np.float64(1)],
                             ids=["True", "np.True_", "1.0", "np.float64"])
    def test_picker_must_return_an_integer(self, choice):
        # element 1 is a candidate, and True, 1.0 and 1 compare equal
        g = ng.construct("product(dihedral(4),dihedral(4))")
        with pytest.raises(ValueError):
            ng.centralizer_chain(g, picker=lambda grp, candidates: choice)

    def test_picker_may_return_a_numpy_integer(self):
        g = ng.construct("product(dihedral(4),dihedral(4))")
        chain = ng.centralizer_chain(g, picker=lambda grp, cands: np.int64(cands[-1]))
        plain = ng.centralizer_chain(g, picker=lambda grp, cands: cands[-1])
        assert chain.chosen == plain.chosen and chain.orders == plain.orders
        assert all(type(x) is int for x in chain.chosen)

    def test_deterministic_default(self):
        g = ng.construct("heisenberg(3,2)")
        a = ng.centralizer_chain(g)
        b = ng.centralizer_chain(g)
        assert a.chosen == b.chosen and a.orders == b.orders

    def test_candidates_match_the_element_loop(self):
        def loop_candidates(group):
            comm = group.commuting
            out = []
            for x in range(group.order):
                mem = np.flatnonzero(comm[x])
                if len(mem) < group.order and not comm[np.ix_(mem, mem)].all():
                    out.append(x)
            return out

        seen = []

        def recording(group, candidates):
            assert candidates == loop_candidates(group)
            seen.append(group.order)
            return candidates[-1]

        for desc in ("heisenberg(3,2)", "product(dicyclic(2),heisenberg(3,1))",
                     "product(heisenberg(2,2),cyclic(3))"):
            ng.centralizer_chain(ng.construct(desc), picker=recording)
        assert seen


class TestLargeCentralizerWitness:
    def test_two_sylow_product_is_strict(self):
        g = ng.construct("product(dicyclic(2),heisenberg(3,1))")
        wit = ng.large_centralizer_witness(g)
        assert wit.centralizer_order == 108
        assert wit.square == 108 ** 2 == 11664
        assert wit.bound == 216 * 6 == 1296
        assert wit.strict

    def test_small_dihedral(self):
        wit = ng.large_centralizer_witness(ng.construct("dihedral(3)"))
        assert (wit.centralizer_order, wit.square, wit.bound) == (3, 9, 6)

    def test_first_largest_centralizer_is_chosen(self):
        for desc in ("dihedral(3)", "dihedral(8)", "heisenberg(3,2)",
                     "product(dicyclic(2),heisenberg(3,1))", "dicyclic(6)"):
            g = ng.construct(desc)
            comm = g.commuting
            best_elem, best_size = None, -1
            for x in range(g.order):
                size = int(comm[x].sum())
                if size < g.order and size > best_size:
                    best_elem, best_size = x, size
            wit = ng.large_centralizer_witness(g)
            if best_size * best_size >= g.order * len(ng.center(g)):
                assert (wit.element, wit.centralizer_order) == (best_elem, best_size)
            else:
                assert wit is None

    def test_abelian_rejected(self):
        with pytest.raises(ng.AbelianInput):
            ng.large_centralizer_witness(ng.construct("abelian(4,2)"))


class TestSylowSplit:
    def test_dihedral_16(self):
        # (p, n, r, |A|, class exponents): |P| = 2^4 = 16, |Z(P)| = 2
        split = audits._prime_power_split(ng.construct("dihedral(8)"))
        assert split == (2, 4, 1, 1, (1, 2))

    def test_with_cofactor(self):
        p, n, _, cofactor, _ = audits._prime_power_split(
            ng.construct("product(dihedral(8),abelian(3))"))
        assert (p, n, cofactor) == (2, 4, 3)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(ng.WrongShape, match="not nilpotent"):
            audits._prime_power_split(ng.construct("dihedral(6)"))

    def test_rejects_two_nonabelian_factors(self):
        with pytest.raises(ng.WrongShape, match="expected exactly one non-abelian Sylow factor"):
            audits._prime_power_split(
                ng.construct("product(dicyclic(2),heisenberg(3,1))"))


class TestSamePrimeAudit:
    def test_dihedral_dicyclic_16(self):
        g_a, g_b, phi = iso_pair("dihedral(8)", "dicyclic(4)")
        audit = ng.same_prime_audit(g_a, g_b, phi)
        assert audit.verdict == "consistent"
        assert audit.prime == 2
        assert (audit.center_exp_a, audit.center_exp_b) == (1, 1)
        assert (audit.order_exp_a, audit.order_exp_b) == (4, 4)
        assert (audit.cofactor_a, audit.cofactor_b) == (1, 1)
        assert audit.class_exps_a == audit.class_exps_b == (1, 2)
        names = {i.name for i in audit.items}
        assert {"noncentral_gap_factored", "class_count_alignment",
                "smallest_degrees_difference", "center_exponents_equal",
                "centralizer_exponents_match", "cofactor_orders_equal",
                "p_part_orders_equal"} <= names
        assert all(i.passed for i in audit.items)

    def test_with_cofactors(self):
        g_a, g_b, phi = iso_pair("product(dihedral(8),abelian(9))",
                                 "product(dicyclic(4),abelian(3,3))")
        audit = ng.same_prime_audit(g_a, g_b, phi)
        assert audit.verdict == "consistent"
        assert (audit.cofactor_a, audit.cofactor_b) == (9, 9)

    def test_regular_graph_rejected(self):
        g_a, g_b, phi = iso_pair("dihedral(4)", "dicyclic(2)")
        with pytest.raises(ng.RegularGraph):
            ng.same_prime_audit(g_a, g_b, phi)

    def test_non_nilpotent_rejected(self):
        g_a, g_b, phi = iso_pair("dihedral(6)", "dicyclic(3)")
        with pytest.raises(ng.WrongShape):
            ng.same_prime_audit(g_a, g_b, phi)


class TestTwoSylowAudit:
    def test_order_216(self):
        g = ng.construct("product(dicyclic(2),heisenberg(3,1))")
        audit = ng.two_nonabelian_sylow_audit(g)
        assert audit.verdict == "consistent"
        by_name = {i.name: i for i in audit.items}
        assert (by_name["centralizer_center_gap"].lhs,
                by_name["centralizer_center_gap"].rhs) == (54, 54)
        assert (by_name["center_growth"].lhs,
                by_name["center_growth"].rhs) == (6, 6)
        assert (by_name["whole_minus_centralizer"].lhs,
                by_name["whole_minus_centralizer"].rhs) == (108, 108)

    def test_order_1080_with_cofactor(self):
        g = ng.construct("product(dicyclic(2),heisenberg(3,1),cyclic(5))",
                         max_order=2048)
        audit = ng.two_nonabelian_sylow_audit(g)
        assert audit.verdict == "consistent"
        by_name = {i.name: i for i in audit.items}
        assert by_name["centralizer_center_gap"].lhs == 270
        assert by_name["center_growth"].lhs == 30
        assert by_name["whole_minus_centralizer"].lhs == 540

    def test_valuations_recorded(self):
        g = ng.construct("product(dicyclic(2),heisenberg(3,1))")
        audit = ng.two_nonabelian_sylow_audit(g)
        assert audit.valuation_prime == 2   # Q1's prime
        assert audit.valuations  # at least one row

    def test_rejects_single_nonabelian_sylow(self):
        with pytest.raises(ng.WrongShape):
            ng.two_nonabelian_sylow_audit(ng.construct("dihedral(8)"))


class TestCrossPrimeScan:
    def test_small_box_is_empty(self):
        scan = ng.cross_prime_scan(max_prime=5, max_exp=8, max_cofactor=20)
        assert scan.verdict == "empty"
        assert scan.survivors == ()
        assert scan.candidates > 0
        # the one repunit coincidence in range: 31 in bases 2 and 5, reached
        # from the exponent-7 configuration (the shortest that matches values)
        assert any(row[4] == 31 for row in scan.repunit_coincidences)
        for base1, base2, count in scan.uniqueness_rows:
            assert count <= 1

    def test_to_dict_round_trips_to_json(self):
        import json
        scan = ng.cross_prime_scan(max_prime=3, max_exp=5, max_cofactor=10)
        parsed = json.loads(json.dumps(scan.to_dict()))
        assert parsed["verdict"] == "empty"
