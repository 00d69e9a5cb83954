"""Acceptance gate: one test per advertised guarantee of the package.

Each test is self-contained evidence that a headline capability works at desk
scale, so ``pytest -v tests/test_acceptance.py`` reads as the acceptance
checklist -- one pass/fail line per guarantee.
"""

import math
import random
import time

import pytest

import ncgraph as ng


@pytest.fixture(scope="module")
def two_sylow_216():
    return ng.construct("product(dicyclic(2),heisenberg(3,1))")


@pytest.fixture(scope="module")
def two_sylow_216_alt():
    return ng.construct("product(dihedral(4),heisenberg(3,1))")


@pytest.fixture(scope="module")
def two_sylow_1080():
    return ng.construct("product(dicyclic(2),heisenberg(3,1),cyclic(5))",
                        max_order=2048)


def _items_by_name(audit):
    return {item.name: item for item in audit.items}


def test_01_default_scan_nilpotent_irregular_classes_share_orders(
        default_report, default_scan_seconds):
    """Scanning the default catalog: every certificate class whose members are
    all nilpotent with irregular graphs has one single group order, with at
    least one nontrivial class, zero violations, and a bounded runtime."""
    assert default_report.violations == 0
    qualifying = [c for c in default_report.classes
                  if c.all_nilpotent and c.all_irregular and len(c.members) >= 2]
    assert len(qualifying) >= 1
    for cls in qualifying:
        assert cls.nilpotent_irregular_equal_orders == "pass"
        assert len(set(cls.orders)) == 1
    by_members = {c.members: c for c in default_report.classes}
    base = by_members[("dicyclic(4)", "dihedral(8)")]
    assert base.nilpotent_irregular_equal_orders == "pass" and base.orders == (16, 16)
    variant = by_members[("product(dicyclic(4),abelian(3))",
                          "product(dihedral(8),abelian(3))")]
    assert variant.nilpotent_irregular_equal_orders == "pass" and variant.orders == (48, 48)
    assert default_scan_seconds < 300


def test_02_pair_identities_hold_on_every_isomorphic_catalog_pair(
        default_report):
    """Every same-certificate catalog pair passes the per-vertex identity
    audit; the literal centralizer-gap-vs-whole-order comparison is recorded
    but never asserted, and its corrected form is also exercised on a pair
    with genuinely non-abelian centralizers."""
    audits = [a for c in default_report.classes for a in c.pair_audits]
    assert len(audits) >= 3
    asserted = ("noncentral_counts", "degree_gaps", "centralizer_center_gaps",
                "centralizer_graphs_isomorphic",
                "order_center_centralizer_biconditional", "divisibility")
    for audit in audits:
        assert audit.verdict == "consistent"
        items = _items_by_name(audit)
        for name in asserted:
            assert items[name].passed is True, (audit.descriptor_a, name)
        assert items["center_gap_vs_whole_order"].passed is None

    # a pair where the corrected form fires non-vacuously: both groups have
    # vertices with non-abelian centralizers, and those centralizers' graphs
    # must agree pairwise
    g_a = ng.construct("product(dihedral(4),heisenberg(3,1))")
    g_b = ng.construct("product(dicyclic(2),heisenberg(3,1))")
    phi = ng.find_isomorphism(ng.build_nc_graph(g_a), ng.build_nc_graph(g_b))
    assert phi is not None
    audit = ng.audit_isomorphic_pair(g_a, g_b, phi)
    items = _items_by_name(audit)
    assert audit.verdict == "consistent"
    assert items["centralizer_center_gaps"].passed is True
    assert items["centralizer_graphs_isomorphic"].rhs > 0
    assert items["centralizer_graphs_isomorphic"].lhs == \
        items["centralizer_graphs_isomorphic"].rhs
    assert items["center_gap_vs_whole_order"].lhs > 0  # vertices compared


def test_03_centralizer_chains_reach_ac_groups_within_log2_steps(catalog_groups):
    """For every catalog group the descending centralizer chain ends in an
    AC-group within log2(order) steps, deterministically."""
    chains = {}
    for descriptor, g in catalog_groups.items():
        chain = ng.centralizer_chain(g)
        chains[descriptor] = chain
        assert chain.steps <= math.log2(g.order)
        assert ng.is_ac_group(chain.groups[-1])
        orders = chain.orders
        assert all(orders[i] % orders[i + 1] == 0 and orders[i] > orders[i + 1]
                   for i in range(len(orders) - 1))
        again = ng.centralizer_chain(g)
        assert again.orders == orders and again.chosen == chain.chosen

    branching = [d for d, chain in chains.items() if chain.steps > 0]
    assert branching  # at least one catalog group is not already an AC-group


def test_04_degree_equals_order_minus_centralizer_everywhere(catalog_groups):
    """deg(v) = |G| - |C_G(g_v)| exactly, for every vertex of every catalog
    graph."""
    vertices_checked = 0
    for g in catalog_groups.values():
        graph = ng.build_nc_graph(g)
        degrees = graph.degrees()
        for local, element in enumerate(graph.vertices):
            assert degrees[local] == g.order - ng.centralizer_size(g, element)
            vertices_checked += 1
    assert vertices_checked > 1000


def test_05_regular_catalog_graphs_are_uniform_single_sylow(
        catalog_entries, catalog_groups):
    """Every catalog group whose graph is regular has one shared non-trivial
    conjugacy-class size and exactly one non-abelian Sylow factor."""
    regular = [e for e in catalog_entries if e.regular]
    assert {e.descriptor for e in regular} >= {"dihedral(4)", "dicyclic(2)",
                                               "heisenberg(3,2)"}
    for entry in regular:
        assert len(entry.class_profile) == 1, entry.descriptor
        assert entry.nonabelian_sylow_count == 1, entry.descriptor
        uniform, size = ng.has_uniform_class_sizes(
            catalog_groups[entry.descriptor])
        assert uniform and size == entry.class_profile[0][0]


def test_06_two_nonabelian_sylow_factors_force_strict_witness(
        catalog_entries, catalog_groups, two_sylow_216, two_sylow_216_alt):
    """Any nilpotent group with two non-abelian Sylow factors has a
    non-central element with |C(g)|^2 strictly above |G| |Z(G)|; concretely
    108^2 = 11664 > 1296 at order 216."""
    for g in (two_sylow_216, two_sylow_216_alt):
        assert sum(not f.abelian for f in ng.sylow_decomposition(g)) == 2
        witness = ng.large_centralizer_witness(g)
        assert witness is not None and witness.strict
        assert witness.centralizer_order == 108
        assert witness.square == 108 ** 2 == 11664
        assert witness.bound == g.order * 6 == 1296
        assert witness.square > witness.bound
    # the default catalog keeps cofactors abelian, so no entry has two
    # non-abelian factors -- but if one ever does, the witness must exist
    for entry in catalog_entries:
        if entry.nilpotent and (entry.nonabelian_sylow_count or 0) >= 2:
            assert ng.large_centralizer_witness(
                catalog_groups[entry.descriptor]).strict


def test_07_same_prime_audit_concludes_equal_shapes(default_report):
    """On every qualifying isomorphic catalog pair (nilpotent, irregular, one
    non-abelian Sylow factor), the factored identities hold exactly and force
    equal center exponents, equal cofactor orders, and equal p-part orders."""
    audits = [a for c in default_report.classes for a in c.same_prime_audits]
    assert len(audits) >= 3
    for audit in audits:
        assert audit.verdict == "consistent"
        items = _items_by_name(audit)
        assert items["noncentral_gap_factored"].passed is True
        step_items = [i for n, i in items.items()
                      if n.startswith("degree_by_class_step[")]
        assert step_items and all(i.passed for i in step_items)
        assert items["smallest_degrees_difference"].passed is True
        assert items["center_exponents_equal"].passed is True
        assert items["cofactor_orders_equal"].passed is True
        assert items["p_part_orders_equal"].passed is True
    by_members = {c.members: c for c in default_report.classes}
    base = by_members[("dicyclic(4)", "dihedral(8)")].same_prime_audits[0]
    assert base.prime == 2
    assert (base.order_exp_a, base.center_exp_a) == (4, 1)
    assert (base.order_exp_b, base.center_exp_b) == (4, 1)
    assert base.cofactor_a == base.cofactor_b == 1
    cofactors = {a.cofactor_a for a in audits}
    assert {1, 3, 5, 7, 9} <= cofactors


def test_08_two_sylow_product_identities_exact(two_sylow_216, two_sylow_1080):
    """The three product identities for a group with two non-abelian Sylow
    factors hold with exact integers at order 216 and, with an abelian
    cofactor, at order 1080."""
    audit = ng.two_nonabelian_sylow_audit(two_sylow_216)
    assert audit.verdict == "consistent"
    assert (audit.prime_1, audit.prime_2) == (2, 3)
    assert (audit.order_q1, audit.order_q2, audit.cofactor) == (8, 27, 1)
    values = {i.name: (i.lhs, i.rhs) for i in audit.items}
    assert values == {
        "centralizer_center_gap": (54, 54),
        "center_growth": (6, 6),
        "whole_minus_centralizer": (108, 108),
    }
    assert all(i.passed for i in audit.items)

    audit = ng.two_nonabelian_sylow_audit(two_sylow_1080)
    assert audit.verdict == "consistent"
    assert audit.cofactor == 5
    values = {i.name: (i.lhs, i.rhs) for i in audit.items}
    assert values == {
        "centralizer_center_gap": (270, 270),
        "center_growth": (30, 30),
        "whole_minus_centralizer": (540, 540),
    }
    assert len(audit.valuations) == 6 and audit.valuation_prime == 2


def test_09_cross_prime_scan_is_empty_and_matches_repunit_search():
    """The bounded cross-prime parameter scan finds zero surviving tuples,
    and the repunit coincidences it meets are exactly the ones the dedicated
    repunit search reports."""
    scan = ng.cross_prime_scan(max_prime=7, max_exp=8, max_cofactor=50)
    assert scan.verdict == "empty"
    assert scan.survivors == ()
    assert scan.candidates == 790
    assert scan.candidates_with_pairs == 0
    assert scan.pairs_analyzed == 0
    assert all(count <= 1 for _, _, count in scan.uniqueness_rows)
    assert scan.repunit_coincidences == (
        (2, 5, 5, 3, 31), (5, 3, 2, 5, 31))
    # cross-reference: the same coincidence is the unique small-box solution
    # of the dedicated repunit-equality search
    solutions = ng.goormaghtigh_search(12, 20)
    assert len(solutions) == 1
    sol = solutions[0]
    base1, len1, base2, len2, value = scan.repunit_coincidences[0]
    assert (base1, len1, base2, len2) == (sol.x, sol.m, sol.y, sol.n)
    assert value == sol.value == ng.repunit(sol.x, sol.m) == 31


def test_10_repunit_search_boxes_exact_and_fast():
    """The bounded repunit-equality search returns exactly the known
    solutions in both standard boxes, with at most one exponent pair per base
    pair, in bounded time."""
    start = time.monotonic()
    small = ng.goormaghtigh_search(12, 20)
    assert [s.astuple() for s in small] == [(2, 5, 5, 3)]
    large = ng.goormaghtigh_search(100, 20)
    assert [s.astuple() for s in large] == [(2, 5, 5, 3), (2, 90, 13, 3)]
    elapsed = time.monotonic() - start
    base_pairs = [(s.x, s.y) for s in large]
    assert len(base_pairs) == len(set(base_pairs))
    assert ng.repunit(2, 5) == ng.repunit(5, 3) == 31
    assert ng.repunit(2, 13) == ng.repunit(90, 3) == 8191
    assert elapsed < 10


def test_11_certificates_complete_and_permutation_invariant(
        default_report, catalog_groups):
    """Across 200+ seeded random relabelings of catalog graphs the
    certificate never changes, and certificate equality coincides with the
    existence of a verified bijection."""
    rng = random.Random(20260816)
    graphs = {d: ng.build_nc_graph(g) for d, g in catalog_groups.items()}
    trials = 0
    for descriptor in sorted(graphs):
        graph = graphs[descriptor]
        expected = ng.certificate(graph)
        for _ in range(2):
            perm = list(range(graph.num_vertices))
            rng.shuffle(perm)
            assert ng.certificate(ng.relabeled(graph, perm)) == expected
            trials += 1
    assert trials >= 200

    # equal certificates <=> a verified bijection exists: positives from the
    # scan's certificate classes, negatives across distinct classes
    classes = default_report.classes
    multi = [c for c in classes if len(c.members) >= 2]
    assert multi
    for cls in multi:
        a, b = graphs[cls.members[0]], graphs[cls.members[1]]
        assert ng.certificate(a) == ng.certificate(b)
        assert ng.find_isomorphism(a, b) is not None
    singles = [c.members[0] for c in classes if len(c.members) == 1]
    for name_a, name_b in zip(singles[:5], singles[1:6]):
        a, b = graphs[name_a], graphs[name_b]
        assert ng.certificate(a) != ng.certificate(b)
        assert ng.find_isomorphism(a, b) is None


def test_12_table_files_round_trip_and_validation_rejects_loop(tmp_path):
    """Export/import of .cay tables is lossless, and the order-5
    non-associative loop is rejected with a correct witness triple."""
    for descriptor in ("dihedral(8)", "heisenberg(3,1)",
                       "product(dicyclic(2),abelian(3))"):
        g = ng.construct(descriptor)
        path = tmp_path / "group.cay"
        ng.export_group(g, str(path))
        back = ng.import_group(str(path))
        assert (back.table == g.table).all()
        assert back.order == g.order

    loop5 = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    loop_text = "5\n" + "\n".join(" ".join(map(str, row)) for row in loop5) + "\n"
    loop_path = tmp_path / "loop5.cay"
    loop_path.write_text(loop_text)
    with pytest.raises(ng.NotAssociative) as exc:
        ng.import_group(str(loop_path))
    assert exc.value.witness == (1, 1, 2)
    # the witness triple really is a failing instance: (x*y)*z != x*(y*z)
    x, y, z = exc.value.witness
    assert loop5[loop5[x][y]][z] != loop5[x][loop5[y][z]]
