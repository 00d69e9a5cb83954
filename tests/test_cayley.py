import gc
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import ncgraph as ng
from ncgraph import cayley
from ncgraph.cayley import PRIME_TEST_LIMIT, is_prime

# A 5x5 loop: Latin square with identity 0 that fails associativity at
# (1*1)*2 = 0*2 = 2 versus 1*(1*2) = 1*3 = 4.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


class TestValidate:
    def test_accepts_cyclic_group(self):
        t = [[(i + j) % 6 for j in range(6)] for i in range(6)]
        g = ng.validate(t)
        assert g.order == 6
        assert np.array_equal(g.table, np.array(t))

    def test_relabels_identity_to_zero(self):
        # Z3 written with its identity at index 1
        t = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
        g = ng.validate(t)
        assert g.table[0].tolist() == [0, 1, 2]
        assert g.table[:, 0].tolist() == [0, 1, 2]
        assert g.table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

    def test_table_is_frozen(self):
        g = ng.construct("cyclic(4)")
        with pytest.raises(ValueError):
            g.table[0, 0] = 3

    def test_not_closed_witness(self):
        with pytest.raises(ng.NotClosed) as exc:
            ng.validate([[0, 1], [1, 5]])
        assert exc.value.witness == (1, 1, 5)

    def test_no_identity(self):
        with pytest.raises(ng.NoIdentity):
            ng.validate([[0, 1], [0, 1]])

    def test_not_latin_row_witness(self):
        with pytest.raises(ng.NotLatin) as exc:
            ng.validate([[0, 1, 2], [1, 1, 2], [2, 0, 1]])
        assert exc.value.witness == (1, 0, 1)

    def test_not_latin_column_witness(self):
        # rows are all permutations; column 1 repeats the value 1
        with pytest.raises(ng.NotLatin) as exc:
            ng.validate([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
        assert exc.value.witness == (0, 2, 1)

    def test_not_associative_witness(self):
        with pytest.raises(ng.NotAssociative) as exc:
            ng.validate(LOOP5)
        assert exc.value.witness == (1, 1, 2)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ng.validate([[0, 1, 2], [1, 2, 0]])

    def test_large_table_checked_in_full(self):
        # above the order where the old cubic sweep stopped, every axiom,
        # associativity included, is still checked
        n = 150
        t = [[(i + j) % n for j in range(n)] for i in range(n)]
        g = ng.validate(t)
        assert g.order == n

    @pytest.mark.parametrize("bad", [0.5, 10**30, -(10**30), float("nan")])
    def test_rejects_entries_that_are_not_indices(self, bad):
        # a fraction is not truncated and a huge integer is not an
        # OverflowError: both are NotClosed at the first bad entry
        t = [[0, 1, 2], [1, 2, bad], [2, 0, bad]]
        with pytest.raises(ng.NotClosed) as exc:
            ng.validate(t)
        assert repr(exc.value.witness) == repr((1, 2, bad))

    @pytest.mark.parametrize("raw, witness", [
        (np.array([[False, True], [True, False]]), (0, 0, False)),
        ([[False, True], [True, False]], (0, 0, False)),
        (np.array([[0, True], [True, 0]], dtype=object), (0, 1, True)),
        (np.array([[0, 1], [1, np.True_]], dtype=object), (1, 1, True)),
    ])
    def test_bool_entries_are_not_indices(self, raw, witness):
        with pytest.raises(ng.NotClosed, match="is not an index") as exc:
            ng.validate(raw)
        assert exc.value.witness == witness
        assert type(exc.value.witness[2]) is bool

    def test_bool_in_a_list_of_ints_is_not_an_index(self):
        # np.asarray makes this list int64, reading True as 1
        with pytest.raises(ng.NotClosed, match="is not an index") as exc:
            ng.validate([[0, True], [True, 0]])
        assert exc.value.witness == (0, 1, True)
        assert type(exc.value.witness[2]) is bool

    def test_integral_floats_are_indices(self):
        t = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        g = ng.validate(np.array(t, dtype=float))
        assert np.array_equal(g.table, np.array(t))

    def test_first_bad_entry_is_row_major(self):
        # an out-of-range integer before a fraction is the witness
        t = [[0, 1, 2], [1, 7, 0.5], [2, 0, 1]]
        with pytest.raises(ng.NotClosed) as exc:
            ng.validate(t)
        assert exc.value.witness == (1, 1, 7)

    def test_integer_tables_skip_the_entry_walk(self, monkeypatch):
        # construct validates every scan entry: integer arrays and lists of
        # ints must not pay the per-entry walk
        def walk(arr, name):
            raise AssertionError("entry walk on an integer table")

        monkeypatch.setattr(cayley, "_index_entries", walk)
        t = [[(i + j) % 5 for j in range(5)] for i in range(5)]
        for raw in (t, np.array(t), np.array(t, dtype=np.int32),
                    np.array(t, dtype=np.uint8)):
            assert ng.validate(raw).order == 5
        assert ng.construct("dihedral(6)").order == 12


def has_failing_triple(t):
    """Brute-force associativity oracle over all n^3 triples."""
    n = len(t)
    return any(t[t[i][j]][k] != t[i][t[j][k]]
               for i in range(n) for j in range(n) for k in range(n))


def random_loop(n, rng):
    """A random Latin square with identity 0, filled cell by cell with
    random candidate order and backtracking."""
    t = [[0] * n for _ in range(n)]
    t[0] = list(range(n))
    for i in range(n):
        t[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            return True
        i, j = cells[c]
        used = set(t[i][:j]) | {t[r][j] for r in range(i)}
        for v in rng.permutation(n).tolist():
            if v not in used:
                t[i][j] = v
                if fill(c + 1):
                    return True
        return False

    assert fill(0)
    return t


def swap_intercalate(t, rng):
    """Swap one intercalate (a 2x2 Latin subsquare) off the identity row and
    column, or return None if the table has none."""
    n = len(t)
    quads = [(x, x2, c, c2)
             for x in range(1, n) for x2 in range(x + 1, n)
             for c in range(1, n) for c2 in range(c + 1, n)
             if t[x][c] == t[x2][c2] and t[x][c2] == t[x2][c]]
    if not quads:
        return None
    x, x2, c, c2 = quads[int(rng.integers(len(quads)))]
    bad = [row[:] for row in t]
    bad[x][c], bad[x][c2] = t[x][c2], t[x][c]
    bad[x2][c], bad[x2][c2] = t[x2][c2], t[x2][c]
    return bad


def relabel(t, rng):
    """The same table with element i renamed p[i]."""
    p = rng.permutation(len(t))
    q = np.argsort(p)
    return p[np.asarray(t)[np.ix_(q, q)]].tolist()


class TestLightAssociativity:
    def test_agrees_with_brute_force_on_small_loops(self):
        rng = np.random.default_rng(2024)
        cases = [random_loop(n, rng) for n in range(1, 9) for _ in range(12)]
        for desc in ("cyclic(4)", "abelian(2,2)", "cyclic(6)", "dihedral(3)",
                     "cyclic(8)", "abelian(2,4)", "abelian(2,2,2)",
                     "dihedral(4)", "dicyclic(2)"):
            base = ng.construct(desc).table.tolist()
            for _ in range(4):
                bad = swap_intercalate(base, rng)
                if bad is not None:
                    cases.append(bad)
        cases += [relabel(t, rng) for t in cases]
        outcomes = set()
        for t in cases:
            failing = has_failing_triple(t)
            outcomes.add(failing)
            if not failing:
                assert ng.validate(t).order == len(t)
                continue
            with pytest.raises(ng.NotAssociative) as exc:
                ng.validate(t)
            x, a, y = exc.value.witness
            assert t[t[x][a]][y] != t[x][t[a][y]]
        assert outcomes == {True, False}

    @pytest.mark.parametrize("desc", ["dihedral(512)", "heisenberg(2,4)"])
    def test_relabeled_large_groups_pass(self, desc, monkeypatch):
        g = ng.construct(desc, max_order=1024)
        t = relabel(g.table, np.random.default_rng(7))
        checked = []
        real = cayley._light

        def counting(arr, left, right, name, a):
            checked.append(a)
            return real(arr, left, right, name, a)

        monkeypatch.setattr(cayley, "_light", counting)
        h = ng.validate(t)
        assert h.order == g.order
        assert len(ng.center(h)) == len(ng.center(g))
        # one Light check per checked generator; a group never needs
        # more than log2(n) of them
        assert 1 <= len(checked) <= int(np.log2(g.order))


class TestStructure:
    def test_center_of_dihedral_8(self):
        d4 = ng.construct("dihedral(4)")
        assert ng.center(d4) == (0, 2)

    def test_centralizer_of_rotation(self):
        d4 = ng.construct("dihedral(4)")
        c = ng.centralizer(d4, 1)
        assert c == (0, 1, 2, 3)
        assert ng.centralizer_size(d4, 1) == 4

    def test_centralizer_index_error(self):
        d4 = ng.construct("dihedral(4)")
        with pytest.raises(ng.IndexOutOfRange):
            ng.centralizer(d4, 8)
        for x in (8, -1):
            with pytest.raises(ng.IndexOutOfRange):
                ng.centralizer_size(d4, x)

    def test_centralizer_index_must_be_a_non_bool_integer(self):
        # True is not element 1, and a float is not an index, even a whole one
        d4 = ng.construct("dihedral(4)")
        for x in (True, np.bool_(True), 2.0, 2.5, "1", None, -1, d4.order):
            with pytest.raises(ng.IndexOutOfRange):
                ng.centralizer(d4, x)
            with pytest.raises(ng.IndexOutOfRange):
                ng.centralizer_size(d4, x)
        assert ng.centralizer(d4, np.int64(2)) == ng.centralizer(d4, 2)
        assert ng.centralizer_size(d4, np.int64(2)) == ng.centralizer_size(d4, 2)

    def test_conjugacy_classes_dihedral_8(self):
        d4 = ng.construct("dihedral(4)")
        assert sorted(len(c) for c in ng.conjugacy_classes(d4)) == [1, 1, 2, 2, 2]

    def test_orbit_stabiliser_mismatch_names_the_least_member(self):
        d4 = ng.construct("dihedral(4)")
        leader = next(c[0] for c in ng.conjugacy_classes(d4) if len(c) == 2)
        comm = d4.commuting.copy()
        comm[leader, leader] = False   # one commuting element fewer
        d4._memo = {ng.CayleyTable.commuting.fget.key: comm}
        with pytest.raises(ng.InternalInconsistency,
                           match=f"mismatch at element {leader}: 2 \\* 3 != 8$"):
            ng.conjugacy_classes(d4)

    def test_class_sizes_divide_order(self):
        for name in ("dihedral(6)", "dicyclic(3)", "heisenberg(3,1)"):
            g = ng.construct(name)
            for cls in ng.conjugacy_classes(g):
                assert g.order % len(cls) == 0

    def test_upper_central_series_dihedral_8(self):
        d4 = ng.construct("dihedral(4)")
        sizes = [len(s) for s in ng.upper_central_series(d4)]
        assert sizes == [1, 2, 8]
        assert ng.is_nilpotent(d4) == (True, 2)

    def test_series_terms_are_nested_subgroups(self):
        for desc in ("dihedral(8)", "heisenberg(3,2)", "product(dicyclic(2),cyclic(3))"):
            g = ng.construct(desc)
            terms = [frozenset(s) for s in ng.upper_central_series(g)]
            for lower, upper in zip(terms, terms[1:]):
                assert lower < upper, desc
            for term in terms:
                assert closure(g, term) == term, desc

    def test_centralizers_are_closed_under_products(self):
        for desc in ("dihedral(12)", "heisenberg(3,1)", "product(dicyclic(2),cyclic(3))"):
            g = ng.construct(desc)
            for x in range(g.order):
                members = frozenset(ng.centralizer(g, x))
                assert closure(g, members) == members, (desc, x)

    def test_dihedral_12_not_nilpotent(self):
        d6 = ng.construct("dihedral(6)")
        sizes = [len(s) for s in ng.upper_central_series(d6)]
        assert sizes == [1, 2]  # stalls below the whole group
        assert ng.is_nilpotent(d6) == (False, None)

    def test_abelian_is_nilpotent_class_1(self):
        assert ng.is_nilpotent(ng.construct("cyclic(9)")) == (True, 1)

    def test_heisenberg_class_2(self):
        assert ng.is_nilpotent(ng.construct("heisenberg(3,2)")) == (True, 2)

    def test_induced_group_of_centralizer(self):
        d4 = ng.construct("dihedral(4)")
        sub = ng.induced_group(d4, ng.centralizer(d4, 1))
        assert sub.order == 4
        assert sub.is_abelian
        assert sub.parent_map == (0, 1, 2, 3)

    def test_induced_group_rejects_non_subgroup(self):
        d4 = ng.construct("dihedral(4)")
        bad = (0, 1)
        with pytest.raises(ng.NotASubgroup, match="set is not closed: 1 \\* 1 escapes it"):
            ng.induced_group(d4, bad)

    def test_induced_group_checks_each_index(self):
        # out of range, negative, a bool or a float: never read as an element
        d4 = ng.construct("dihedral(4)")
        for members in ((0, 99), (0, -1), (0, True, 2), (0, 2.0), (0, "1"), (0, None)):
            with pytest.raises(ng.IndexOutOfRange):
                ng.induced_group(d4, members)
        for members in (0, None, 2.0):
            with pytest.raises(ng.NotASubgroup, match="is not a set of element indices"):
                ng.induced_group(d4, members)
        with pytest.raises(ng.NotASubgroup, match="must contain the identity"):
            ng.induced_group(d4, ())

    def test_induced_group_reads_numpy_indices_and_collapses_duplicates(self):
        d4 = ng.construct("dihedral(4)")
        plain = ng.induced_group(d4, (0, 1, 2, 3))
        for members in ([np.int64(x) for x in (0, 1, 2, 3)], np.array([3, 1, 0, 2]),
                        [0, 1, 1, 2, 3, 0], {3: 0, 2: 0, 1: 0, 0: 0}, iter(range(4))):
            sub = ng.induced_group(d4, members)
            assert np.array_equal(sub.table, plain.table)
            assert sub.parent_map == plain.parent_map == (0, 1, 2, 3)
            assert all(type(x) is int for x in sub.parent_map)

    def test_centre_of_another_table_induces_the_same_subgroup(self):
        d4, d4_again = ng.construct("dihedral(4)"), ng.construct("dihedral(4)")
        own = ng.induced_group(d4, ng.center(d4))
        other = ng.induced_group(d4, ng.center(d4_again))
        assert np.array_equal(own.table, other.table)
        assert own.parent_map == other.parent_map == (0, 2)

    def test_element_sets_are_ascending_python_ints(self):
        g = ng.construct("product(dihedral(4),cyclic(3))")
        sets = [ng.center(g), ng.centralizer(g, 5), *ng.upper_central_series(g),
                *(f.members for f in ng.sylow_decomposition(g))]
        for s in sets:
            assert type(s) is tuple and list(s) == sorted(set(s))
            assert all(type(x) is int for x in s)

    def test_memoised_sets_leave_their_table_free(self):
        # the centre, the central series, the Sylow factors and the other
        # derived forms are memoised on the table; reference counting alone
        # must still free the table, while its graph lives on
        g = ng.construct("dihedral(4)")
        ng.center(g)
        ng.upper_central_series(g)
        ng.sylow_decomposition(g)
        ng.centralizer_data(g)
        ng.conjugacy_classes(g)
        graph = ng.build_nc_graph(g)
        ng.certificate(graph)
        graph.degrees()
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert ref() is None
        finally:
            gc.enable()

    def test_is_ac_group(self):
        assert ng.is_ac_group(ng.construct("dihedral(4)"))
        assert ng.is_ac_group(ng.construct("dihedral(8)"))
        assert not ng.is_ac_group(ng.construct("heisenberg(3,2)"))
        with pytest.raises(ng.AbelianInput):
            ng.is_ac_group(ng.construct("cyclic(4)"))

    def test_uniform_class_sizes(self):
        assert ng.has_uniform_class_sizes(ng.construct("heisenberg(3,1)")) == (True, 3)
        assert ng.has_uniform_class_sizes(ng.construct("dihedral(8)")) == (False, None)
        with pytest.raises(ng.AbelianInput):
            ng.has_uniform_class_sizes(ng.construct("cyclic(6)"))


def old_upper_central_series(g):
    """The per-element loop that upper_central_series replaced, as the
    member sets of each level."""
    n = g.order
    t = g.table
    inv = g.inverses
    idx = np.arange(n)
    current = np.zeros(n, dtype=bool)
    current[0] = True
    levels = [current.copy()]
    while not current.all():
        nxt = np.zeros(n, dtype=bool)
        members = np.nonzero(current)[0]
        for x in range(n):
            if current[x]:
                nxt[x] = True
                continue
            conj = t[t[inv, x], idx]
            allowed = np.zeros(n, dtype=bool)
            allowed[t[x, members]] = True
            nxt[x] = bool(allowed[conj].all())
        if (nxt == current).all():
            break
        current = nxt
        levels.append(current.copy())
    return [frozenset(np.flatnonzero(m).tolist()) for m in levels]


def old_element_orders(g):
    """Order of every element, by walking its powers to the identity."""
    t = g.table.tolist()
    orders = [1] * g.order
    for x in range(1, g.order):
        k, y = 1, x
        while y != 0:
            y = t[y][x]
            k += 1
        orders[x] = k
    return orders


def old_conjugacy_classes(g):
    """The per-element loop that conjugacy_classes replaced: one conjugation
    row and one np.unique per class."""
    n = g.order
    t = g.table
    idx = np.arange(n)
    seen = np.zeros(n, dtype=bool)
    out = []
    for x in range(n):
        if seen[x]:
            continue
        members = np.unique(t[t[g.inverses, x], idx])
        seen[members] = True
        assert len(members) * int(g.commuting[x].sum()) == n
        out.append(tuple(int(m) for m in members))
    return tuple(out)


def relabeled_import(desc, seed):
    """``desc`` imported from .cay text with its elements relabeled."""
    t = relabel(ng.construct(desc, max_order=1024).table, np.random.default_rng(seed))
    return ng.parse_group(f"{len(t)}\n" + "\n".join(" ".join(map(str, row)) for row in t))


ORACLE_GROUPS = ["dihedral(24)", "heisenberg(3,2)", "product(dihedral(4),cyclic(3))"]


def old_latin_failure(t):
    """The two sorts validate checked the Latin property with: the NotLatin
    message and witness of the first failure, or None."""
    arr = np.asarray(t)
    n = len(arr)
    idx = np.arange(n)
    for name, lines in (("row", arr), ("column", arr.T)):
        bad = np.nonzero((np.sort(lines, axis=1) != idx).any(axis=1))[0]
        if bad.size:
            i = int(bad[0])
            v = int(np.nonzero(np.bincount(lines[i], minlength=n) > 1)[0][0])
            k1, k2 = map(int, np.nonzero(lines[i] == v)[0][:2])
            other = "columns" if name == "row" else "rows"
            message = (f"table(order={n}): {name} {i} repeats value {v} "
                       f"at {other} {k1} and {k2}")
            return message, (i, k1, k2) if name == "row" else (k1, k2, i)
    return None


def plant_latin_faults(t, rng):
    """One to three faults off the identity's row and column: an entry set
    to another value (a row repeat) or two entries of a row swapped (a
    column repeat only)."""
    bad = np.array(t)
    n = len(bad)
    e = int(np.nonzero((bad == np.arange(n)).all(axis=1))[0][0])
    free = [k for k in range(n) if k != e]
    for _ in range(int(rng.integers(1, 4))):
        i, j, j2 = (int(x) for x in rng.choice(free, size=3, replace=False))
        if rng.random() < 0.5:
            bad[i, j] = bad[i, j2]
        else:
            bad[i, [j, j2]] = bad[i, [j2, j]]
    return bad.tolist()


class TestArrayOracles:
    """The array versions against the per-element loops they replaced."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("desc", ORACLE_GROUPS)
    def test_series_matches_the_loop(self, desc, seed):
        g = relabeled_import(desc, seed)
        assert [frozenset(s) for s in ng.upper_central_series(g)] == old_upper_central_series(g)

    @pytest.mark.parametrize("desc", ORACLE_GROUPS + [
        "dicyclic(16)", "heisenberg(2,3)", "product(dicyclic(2),heisenberg(3,1))",
        "dihedral(5)", "cyclic(6)", "cyclic(1)"])
    def test_conjugacy_classes_match_the_loop(self, desc):
        g = relabeled_import(desc, 5)
        classes = ng.conjugacy_classes(g)
        assert classes == old_conjugacy_classes(g)
        assert all(type(x) is int for c in classes for x in c)

    def test_latin_check_matches_the_sorts(self):
        rng = np.random.default_rng(73)
        outcomes = set()
        for desc in ["dihedral(12)", "heisenberg(3,1)", "dicyclic(5)",
                     "product(dihedral(4),cyclic(3))"]:
            for _ in range(10):
                t = relabel(ng.construct(desc).table, rng)
                assert old_latin_failure(t) is None
                ng.validate(t)
                bad = plant_latin_faults(t, rng)
                message, witness = old_latin_failure(bad)
                outcomes.add(message.split()[1])
                with pytest.raises(ng.NotLatin) as exc:
                    ng.validate(bad)
                assert str(exc.value) == message
                assert exc.value.witness == witness
        assert outcomes == {"row", "column"}

    def test_non_nilpotent_series_matches_the_loop(self):
        g = relabeled_import("dihedral(12)", 3)
        series = ng.upper_central_series(g)
        assert [frozenset(s) for s in series] == old_upper_central_series(g)
        assert len(series[-1]) < g.order

    @pytest.mark.parametrize("desc", ORACLE_GROUPS + [
        "product(dicyclic(2),heisenberg(3,1))", "dihedral(5)", "cyclic(6)"])
    def test_centralizer_data_matches_brute_force(self, desc):
        g = relabeled_import(desc, 11)
        data = ng.centralizer_data(g)
        ids = {}
        for x in range(g.order):
            c = ng.centralizer(g, x)
            sub = ng.induced_group(g, c)
            assert data.sizes[x] == len(c) == ng.centralizer_size(g, x)
            assert data.center_sizes[x] == len(ng.center(sub))
            assert data.abelian[x] == sub.is_abelian
            # equal ids exactly for equal centralizers
            assert ids.setdefault(int(data.ids[x]), c) == c
        assert len(set(ids.values())) == len(ids)
        if not g.is_abelian:
            noncentral = [x for x in range(g.order) if len(ng.centralizer(g, x)) < g.order]
            assert ng.is_ac_group(g) == all(
                ng.induced_group(g, ng.centralizer(g, x)).is_abelian for x in noncentral)


class TestProductsAndSylow:
    def test_direct_product_orders(self):
        a, b = ng.construct("dihedral(3)"), ng.construct("cyclic(5)")
        p = ng.construct("product(dihedral(3),cyclic(5))")
        assert p.order == 30
        orders_a, orders_b = old_element_orders(a), old_element_orders(b)
        orders_p = old_element_orders(p)
        # element (x, y) sits at x*5 + y and has order lcm(|x|, |y|)
        for x in range(a.order):
            for y in range(b.order):
                assert orders_p[5 * x + y] == np.lcm(orders_a[x], orders_b[y])

    def test_direct_product_overflow(self):
        with pytest.raises(ng.OrderOverflow, match="has order 1024, above the cap 512"):
            ng.construct("product(dihedral(16),dihedral(16))", max_order=512)

    def test_prime_factorization(self):
        assert ng.prime_factorization(360) == {2: 3, 3: 2, 5: 1}
        assert ng.prime_factorization(1) == {}

    def test_is_prime(self):
        assert [p for p in range(-2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert is_prime(1_000_003) and not is_prime(1_000_001)

    def test_is_prime_agrees_with_trial_division(self):
        def trial(p):
            return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))

        assert all(is_prime(p) == trial(p) for p in range(20_000))

    def test_is_prime_answers_large_inputs_at_once(self):
        start = time.perf_counter()
        assert is_prime(2 ** 61 - 1)
        # a strong pseudoprime to the bases 2, 3, 5 and 7, a prime square,
        # and the least strong pseudoprime to every prime base up to 37
        assert not is_prime(3215031751)
        assert not is_prime((2 ** 31 - 1) ** 2)
        assert not is_prime(318665857834031151167461)
        assert time.perf_counter() - start < 1.0

    def test_is_prime_refuses_past_its_exact_range(self):
        with pytest.raises(ValueError, match="past the exact prime test's limit"):
            is_prime(PRIME_TEST_LIMIT)

    def test_sylow_cyclic_12(self):
        factors = ng.sylow_decomposition(ng.construct("cyclic(12)"))
        assert [(f.prime, len(f.members), f.abelian) for f in factors] == [
            (2, 4, True), (3, 3, True)]

    def test_sylow_two_nonabelian_factors(self):
        h = ng.construct("product(dicyclic(2),heisenberg(3,1))")
        factors = ng.sylow_decomposition(h)
        assert [(f.prime, len(f.members), f.abelian) for f in factors] == [
            (2, 8, False), (3, 27, False)]
        assert sum(not f.abelian for f in factors) == 2

    def test_sylow_rejects_non_nilpotent(self):
        with pytest.raises(ng.NotNilpotent):
            ng.sylow_decomposition(ng.construct("dihedral(3)"))

    def test_sylow_members_form_subgroups(self):
        g = ng.construct("product(dihedral(4),cyclic(3))")
        for f in ng.sylow_decomposition(g):
            sub = ng.induced_group(g, f.members)
            assert sub.order == len(f.members)


# --- the n-by-n passes that the generator versions replaced ----------------------

def n2_conjugates(g):
    """[x, y] -> y^-1 * x * y, gathered from the flat table."""
    n = g.order
    t = g.table.astype(np.int64)
    idx = t[g.inverses].T * n   # [x, y] -> (y^-1 * x) * n
    idx += np.arange(n)
    return t.ravel()[idx]


def n2_upper_central_series(g):
    """The series from the n-by-n commutator matrix, as member sets."""
    n = g.order
    commutators = n2_conjugates(g)
    commutators += (g.inverses.astype(np.int64) * n)[:, None]
    commutators = g.table.ravel()[commutators]  # [x, y] -> x^-1 * y^-1 * x * y
    current = np.zeros(n, dtype=bool)
    current[0] = True
    levels = [current]
    while not current.all():
        nxt = current[commutators].all(axis=1)
        if np.array_equal(nxt, current):
            break
        current = nxt
        levels.append(current)
    return [frozenset(np.flatnonzero(m).tolist()) for m in levels]


def n2_conjugacy_classes(g):
    """Classes from the minimum of each row of the n-by-n conjugation matrix."""
    least = n2_conjugates(g).min(axis=1)
    counts = np.bincount(least, minlength=g.order)
    leaders = np.flatnonzero(counts)
    assert (counts[leaders] * g.commuting[leaders].sum(axis=1) == g.order).all()
    members = np.argsort(least, kind="stable").tolist()
    ends = np.cumsum(counts[leaders]).tolist()
    return tuple(tuple(members[a:b]) for a, b in zip([0] + ends, ends))


def n2_sylow(g):
    """(prime, members, abelian) per factor, from element orders, a closure
    check over the members' n-by-n product block and the commuting block."""
    orders = old_element_orders(g)
    out = []
    for p, e in sorted(ng.prime_factorization(g.order).items()):
        members = [x for x in range(g.order) if (p ** e) % orders[x] == 0]
        assert len(members) == p ** e
        inside = np.zeros(g.order, dtype=bool)
        inside[members] = True
        assert inside[g.table[np.ix_(members, members)]].all()
        abelian = bool(g.commuting[np.ix_(members, members)].all())
        out.append((p, frozenset(members), abelian))
    return out


def assert_matches_n2(g):
    assert [frozenset(s) for s in ng.upper_central_series(g)] == n2_upper_central_series(g)
    assert ng.conjugacy_classes(g) == n2_conjugacy_classes(g)
    if ng.is_nilpotent(g)[0]:
        factors = ng.sylow_decomposition(g)
        assert [(f.prime, frozenset(f.members), f.abelian) for f in factors] == n2_sylow(g)
    else:
        with pytest.raises(ng.NotNilpotent):
            ng.sylow_decomposition(g)


def unvalidated_product(g, h):
    """The direct product of two tables, pair (i, j) at i*|H| + j, never
    passed through validate."""
    table = cayley.product_table(g.table, h.table)
    table.flags.writeable = False
    return ng.CayleyTable(g.order * h.order, table, f"product({g.descriptor},{h.descriptor})")


def derived_tables():
    """Tables built without validate: direct products and induced subgroups."""
    d4, h3 = ng.construct("dihedral(4)"), ng.construct("heisenberg(3,1)")
    d3, c4 = ng.construct("dihedral(3)"), ng.construct("cyclic(4)")
    g = unvalidated_product(d4, h3)
    h = relabeled_import("heisenberg(2,4)", 4)
    x = next(x for x in range(h.order) if len(ng.centralizer(h, x)) < h.order)
    d12 = ng.construct("dihedral(12)")
    return {
        "product(d4,h3)": g,
        "product(d3,c4)": unvalidated_product(d3, c4),
        "product(d4,d4)": unvalidated_product(d4, d4),
        "sylow 3 of product(d4,h3)": ng.induced_group(g, ng.sylow_decomposition(g)[1].members),
        "centralizer in heisenberg(2,4)": ng.induced_group(h, ng.centralizer(h, x)),
        "centralizer in dihedral(12)": ng.induced_group(d12, ng.centralizer(d12, 12)),
        "trivial": ng.induced_group(d3, (0,)),
    }


LARGE_IMPORTS = ["dihedral(512)", "heisenberg(2,4)", "dicyclic(64)"]


class TestGeneratorOracles:
    """Central series, classes and Sylow factors from the generators against
    the n-by-n passes they replaced."""

    def test_default_catalog(self, catalog_groups):
        assert len(catalog_groups) == 110
        for g in catalog_groups.values():
            assert_matches_n2(g)

    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize("desc", LARGE_IMPORTS)
    def test_relabeled_imports(self, desc, seed):
        assert_matches_n2(relabeled_import(desc, seed))

    def test_products_and_induced_tables(self):
        for g in derived_tables().values():
            assert_matches_n2(g)


def closure(g, seed):
    """The subgroup a seed set generates: the identity and the seed, grown by
    all products of two members until nothing new appears."""
    inside = np.zeros(g.order, dtype=bool)
    inside[[0, *seed]] = True
    while True:
        members = np.flatnonzero(inside)
        grown = inside.copy()
        grown[g.table[np.ix_(members, members)]] = True
        if np.array_equal(grown, inside):
            return frozenset(members.tolist())
        inside = grown


def assert_generates(g):
    gens = g.generators
    assert all(type(a) is int for a in gens)
    # at most log2(n) generators, and they generate the whole group
    assert len(gens) <= g.order.bit_length() - 1
    assert len(closure(g, gens)) == g.order


class TestGenerators:
    def test_validated_tables(self, catalog_groups):
        rng = np.random.default_rng(31)
        for g in catalog_groups.values():
            assert_generates(g)
            h = ng.validate(relabel(g.table, rng))   # the identity moves
            assert_generates(h)

    @pytest.mark.parametrize("desc", LARGE_IMPORTS)
    def test_parsed_tables(self, desc):
        assert_generates(relabeled_import(desc, 23))

    def test_products_and_induced_tables(self):
        for g in derived_tables().values():
            assert_generates(g)

    def test_validate_keeps_the_generators_it_checked(self, monkeypatch):
        table = ng.construct("heisenberg(3,2)").table
        checked = []
        real = cayley._light

        def recording(arr, left, right, name, a):
            checked.append(a)
            return real(arr, left, right, name, a)

        monkeypatch.setattr(cayley, "_light", recording)
        g = ng.validate(table)
        assert g.generators == tuple(checked)

    @pytest.mark.parametrize("desc", ["product(dihedral(4),cyclic(3))",
                                      "product(dicyclic(2),heisenberg(3,1))"])
    def test_cover_reports_a_planted_escape(self, desc):
        g = relabeled_import(desc, 8)
        rng = np.random.default_rng(9)
        for f in ng.sylow_decomposition(g):
            mask = np.zeros(g.order, dtype=bool)
            mask[list(f.members)] = True
            gens = cayley._cover(g.table, 0, mask)
            assert closure(g, gens) == frozenset(f.members)
            # one member other than the identity swapped for a non-member
            bad = mask.copy()
            bad[rng.choice(np.flatnonzero(mask)[1:])] = False
            bad[rng.choice(np.flatnonzero(~mask))] = True
            assert cayley._cover(g.table, 0, bad) is None

    def test_sylow_closure_check_can_fail(self, monkeypatch):
        g = ng.construct("product(dihedral(4),cyclic(3))")
        real = cayley._cover

        def swapped(arr, identity, within, check=None):
            bad = within.copy()
            bad[np.flatnonzero(within)[-1]] = False
            bad[np.flatnonzero(~within)[0]] = True
            return real(arr, identity, bad, check)

        monkeypatch.setattr(cayley, "_cover", swapped)
        with pytest.raises(ng.InternalInconsistency, match="p=2 are not closed"):
            ng.sylow_decomposition(g)


def axis0_dedup(rows):
    """The first occurrences and row ids of ``np.unique(rows, axis=0)``."""
    _, first, ids = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first, ids.reshape(-1)


class TestCommutingArrays:
    """The commuting matrix and centralizer dedup against the plain numpy
    forms they replaced."""

    def test_row_dedup_matches_axis0_on_the_default_catalog(self, catalog_groups):
        for g in catalog_groups.values():
            packed = np.packbits(g.commuting, axis=1)
            first, ids = cayley._distinct_rows(packed)
            want_first, want_ids = axis0_dedup(packed)
            assert np.array_equal(first, want_first)
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(ng.centralizer_data(g).ids, want_ids)

    @pytest.mark.parametrize("seed", [31, 32])
    @pytest.mark.parametrize("desc", LARGE_IMPORTS + ["heisenberg(3,2)"])
    def test_row_dedup_matches_axis0_on_relabeled_imports(self, desc, seed):
        g = relabeled_import(desc, seed)
        packed = np.packbits(g.commuting, axis=1)
        first, ids = cayley._distinct_rows(packed)
        want_first, want_ids = axis0_dedup(packed)
        assert np.array_equal(first, want_first)
        assert np.array_equal(ids, want_ids)

    def test_distinct_pairs_are_the_first_occurrences(self):
        keys = np.random.default_rng(8).integers(0, 300, size=(500, 2))
        first, ids = cayley._distinct_rows(keys)
        assert sorted(first.tolist()) == sorted(axis0_dedup(keys)[0].tolist())
        assert np.array_equal(keys[first[ids]], keys)

    @pytest.mark.parametrize("desc, relabel_seed", [
        ("dihedral(512)", None), ("dihedral(512)", 41), ("heisenberg(3,2)", 42),
        ("dihedral(150)", 43)])
    def test_tiled_transpose_matches_the_plain_comparison(self, desc, relabel_seed):
        # orders 1024 (a 2 KiB row stride, so commuting tiles), and 243 and
        # 300, whose last row and column of tiles are cut short
        if relabel_seed is None:
            t = ng.construct(desc, max_order=1024).table
        else:
            t = relabeled_import(desc, relabel_seed).table
        plain = t == t.T
        assert np.array_equal(cayley._transpose_equal(t), plain)
        comm = cayley.CayleyTable(len(t), t, desc).commuting
        assert np.array_equal(comm, plain)
        assert not comm.flags.writeable


# --- the kernels that warm-started covers and paired row tests replaced --------

def old_cover(arr, identity, within, check=None):
    """The greedy cover that recomputed every orbit under all the generators
    so far after each new one."""
    covered = np.zeros(arr.shape[0], dtype=bool)
    covered[identity] = True
    gens = []
    while True:
        todo = np.flatnonzero(within & ~covered)
        if not todo.size:
            return tuple(gens)
        a = int(todo[0])
        if check is not None:
            check(a)
        gens.append(a)
        roots = cayley._orbit_roots(arr[:, gens].T)
        covered |= roots == roots[identity]
        if (covered & ~within).any():
            return None


def old_center_sizes(g):
    """|Z(C(x))| by the loop over distinct centralizers: the members of C(x)
    whose packed row contains x's."""
    comm = g.commuting
    packed = np.packbits(comm, axis=1)
    first, ids = cayley._distinct_rows(packed)
    zsizes = np.empty(len(first), dtype=np.int64)
    for k, x in enumerate(first):
        zsizes[k] = ((packed[comm[x]] & packed[x]) == packed[x]).all(axis=1).sum()
    return zsizes[ids]


def validation_outcome(t):
    """What validate makes of a table: its generators and table, or the
    error's type, message and witness."""
    try:
        g = ng.validate(t)
    except ng.Error as exc:
        return type(exc).__name__, str(exc), exc.witness
    return g.generators, g.table.tolist()


def corrupt(t, rng):
    """A Latin square with the same identity that is not associative: rows x
    and x*w exchanged on the columns w^i * u, for w of prime order and u
    outside <w> and {x, x*w} (a Latin-preserving swap)."""
    n = len(t)
    e = int(np.nonzero((t == np.arange(n)).all(axis=1))[0][0])
    for w in rng.permutation(n).tolist():
        powers = [e]
        while w != e and int(t[powers[-1], w]) != e:
            powers.append(int(t[powers[-1], w]))
        if len(powers) > 1 and is_prime(len(powers)):
            break
    x = next(v for v in rng.permutation(n).tolist() if v not in (e, powers[-1]))
    xw = int(t[x, powers[1]])
    u = next(v for v in rng.permutation(n).tolist()
             if v not in powers and v not in (x, xw))
    cols = [int(t[p, u]) for p in powers]
    bad = t.copy()
    bad[x, cols], bad[xw, cols] = t[xw, cols], t[x, cols]
    return bad


TABLE_CASES = ["heisenberg(3,2)", "dicyclic(64)", "heisenberg(2,4)", "dihedral(512)"]


class TestReplacedKernelOracles:
    """The warm-started cover and the paired containment test for centre
    sizes against the kernels they replaced."""

    def test_warm_orbit_roots_match_a_cold_start(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            n = int(rng.integers(1, 80))
            # short cycles in most draws, so that orbits merge step by step
            perms = np.array([rng.permutation(n) if rng.random() < 0.3
                              else np.argsort(np.where(rng.random(n) < 0.8, np.arange(n),
                                                       rng.permutation(n)), kind="stable")
                              for _ in range(int(rng.integers(1, 6)))])
            cold = cayley._orbit_roots(perms)
            roots = None
            for k in range(len(perms)):
                kept = None if roots is None else roots.copy()
                roots = cayley._orbit_roots(perms[k:k + 1], roots)
                assert np.array_equal(roots, cayley._orbit_roots(perms[:k + 1]))
                if kept is not None:   # the warm start is not written to
                    assert np.array_equal(kept, cayley._orbit_roots(perms[:k]))
            assert np.array_equal(roots, cold)
            split = int(rng.integers(0, len(perms) + 1))
            warm = cayley._orbit_roots(perms[split:], cayley._orbit_roots(perms[:split]))
            assert np.array_equal(warm, cold)

    def test_covers_match_on_catalog_and_bare_families(self, catalog_groups,
                                                       bare_family_groups):
        groups = list(catalog_groups.values()) + list(bare_family_groups.values())
        for g in groups:
            every = np.ones(g.order, dtype=bool)
            assert cayley._cover(g.table, 0, every) == old_cover(g.table, 0, every) == g.generators
        for g in groups:
            if not ng.is_nilpotent(g)[0]:
                continue
            for f in ng.sylow_decomposition(g):
                mask = np.zeros(g.order, dtype=bool)
                mask[list(f.members)] = True
                assert cayley._cover(g.table, 0, mask) == old_cover(g.table, 0, mask)

    @pytest.mark.parametrize("seed", [71, 72])
    @pytest.mark.parametrize("desc", TABLE_CASES)
    def test_validation_matches_on_relabeled_and_planted_tables(self, desc, seed,
                                                                monkeypatch):
        rng = np.random.default_rng(seed)
        t = np.array(relabel(ng.construct(desc, max_order=1024).table, rng))
        bad = corrupt(t, rng)
        new = [validation_outcome(t), validation_outcome(bad)]
        monkeypatch.setattr(cayley, "_cover", old_cover)
        old = [validation_outcome(t), validation_outcome(bad)]
        assert new == old
        assert new[1][0] == "NotAssociative"
        # the identity moved to 0 by the gather the swaps replaced
        e = int(np.flatnonzero((t == np.arange(len(t))).all(axis=1))[0])
        sigma = np.arange(len(t))
        sigma[0], sigma[e] = e, 0
        assert new[0][1] == sigma[t[np.ix_(sigma, sigma)]].tolist()

    def test_center_sizes_match_on_catalog_and_bare_families(self, catalog_groups,
                                                             bare_family_groups):
        for g in list(catalog_groups.values()) + list(bare_family_groups.values()):
            data = ng.centralizer_data(g)
            assert np.array_equal(data.center_sizes, old_center_sizes(g)), g.descriptor
            assert np.array_equal(data.sizes, g.commuting.sum(axis=1))
            assert np.array_equal(data.abelian, data.center_sizes == data.sizes)

    @pytest.mark.parametrize("seed", [73, 74])
    @pytest.mark.parametrize("desc", LARGE_IMPORTS + ["heisenberg(3,2)", "dihedral(24)",
                                                      "product(dicyclic(2),heisenberg(3,1))"])
    def test_center_sizes_match_on_relabeled_imports(self, desc, seed):
        g = relabeled_import(desc, seed)
        assert np.array_equal(ng.centralizer_data(g).center_sizes, old_center_sizes(g))

    def test_latin_check_runs_only_when_a_generator_fails(self, monkeypatch):
        calls = []
        real = cayley._check_latin

        def counting(arr, name):
            calls.append(name)
            return real(arr, name)

        monkeypatch.setattr(cayley, "_check_latin", counting)
        rng = np.random.default_rng(79)
        outcomes = set()
        for desc in ["dihedral(12)", "heisenberg(3,1)", "dicyclic(5)",
                     "product(dihedral(4),cyclic(3))"]:
            for _ in range(10):
                t = relabel(ng.construct(desc).table, rng)
                ng.validate(t)
                assert calls == []   # a table that passes is a group
                # two entries of one row exchanged, one of them in the
                # column of the first element Light's test checks: every row
                # stays a permutation, and that column does not
                arr = np.array(t)
                e = int(np.flatnonzero((arr == np.arange(len(arr))).all(axis=1))[0])
                a = 0 if e else 1
                i, j = (int(x) for x in rng.choice([k for k in range(len(arr)) if k not in (e, a)],
                                                   size=2, replace=False))
                swapped = arr.copy()
                swapped[i, [a, j]] = arr[i, [j, a]]
                for bad in (plant_latin_faults(t, rng), swapped.tolist()):
                    expected = old_latin_failure(bad)
                    with pytest.raises(ng.NotLatin) as exc:
                        ng.validate(bad)
                    assert (str(exc.value), exc.value.witness) == expected
                    assert len(calls) == 1
                    outcomes.add(expected[0].split()[1])
                    calls.clear()
        assert outcomes == {"row", "column"}


# --- the row blocks that replaced whole-table scratch ---------------------------

def whole_table_light(arr, left, right, name, a):
    """Light's check of ``a`` with the two n-by-n gathers the row blocks
    replaced; ``left`` and ``right`` go unused."""
    if not np.bincount(arr[:, a], minlength=len(arr)).all():
        cayley._check_latin(arr, name)
    lhs, rhs = arr[arr[:, a]], arr[:, arr[a]]
    if not np.array_equal(lhs, rhs):
        cayley._check_latin(arr, name)
        x, y = map(int, np.argwhere(lhs != rhs)[0])
        raise ng.NotAssociative(f"{name}: ({x}*{a})*{y} != {x}*({a}*{y})",
                                witness=(x, a, y))


def plant(t, x, w, u):
    """``t`` with rows x and x*w exchanged on the columns u and w*u, for w
    of order 2: still a Latin square with the same identity, but not
    associative."""
    cols = [int(t[0, u]), int(t[w, u])]
    bad = t.copy()
    xw = int(t[x, w])
    bad[x, cols], bad[xw, cols] = t[xw, cols], t[x, cols]
    return bad


def failing_rows(t, a):
    return np.flatnonzero((t[t[:, a]] != t[:, t[a]]).any(axis=1))


def traced_peak(fn, *args, **kwargs):
    """The tracemalloc peak of one call, in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestRowBlocks:
    # product(dihedral(64), cyclic(8)) at g*8 + c: index 1 = (e, 1) is the
    # first generator Light's test checks, and index 4 = (e, 4) has order 2,
    # so a fault planted at x = g*8 + c fails only rows of x's run of 8
    PRODUCT = "product(dihedral(64),cyclic(8))"

    def planted(self, x):
        t = ng.construct(self.PRODUCT, max_order=1024).table
        bad = plant(t, x, 4, 8)
        assert set(failing_rows(bad, 1).tolist()) <= set(range(x - x % 8, x - x % 8 + 8))
        return bad

    def outcomes(self, table, monkeypatch):
        """validate's outcome with Light's test in row blocks, then with the
        whole-table reference."""
        blocked = validation_outcome(table)
        with monkeypatch.context() as m:
            m.setattr(cayley, "_light", whole_table_light)
            whole = validation_outcome(table)
        return blocked, whole

    def test_fault_in_the_last_block(self, monkeypatch):
        bad = self.planted(1018)
        n, rows = len(bad), cayley._block_rows(len(bad))
        blocked, whole = self.outcomes(bad, monkeypatch)
        assert blocked == whole
        kind, _, (x, a, y) = blocked
        assert kind == "NotAssociative" and a == 1
        assert x >= n - rows and x // rows == (n - 1) // rows
        assert bad[bad[x, a], y] != bad[x, bad[a, y]]

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 7])
    def test_fault_straddling_a_block_boundary(self, monkeypatch, rows):
        bad = self.planted(1018)
        n = len(bad)
        monkeypatch.setattr(cayley, "_BLOCK_ENTRIES", rows * n)
        assert cayley._block_rows(n) == rows
        failing = failing_rows(bad, 1)
        assert failing[0] // rows < failing[-1] // rows
        blocked, whole = self.outcomes(bad, monkeypatch)
        assert blocked == whole
        assert blocked[0] == "NotAssociative"
        assert blocked[2][0] == failing[0]

    @pytest.mark.parametrize("block_entries", [1, 7 * 12, 1 << 16])
    def test_relabeled_tables_match_the_whole_table_check(self, monkeypatch,
                                                          block_entries):
        monkeypatch.setattr(cayley, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(83)
        for desc in ["dihedral(6)", "heisenberg(3,1)", "dicyclic(7)",
                     "product(dihedral(4),cyclic(3))"]:
            t = np.array(relabel(ng.construct(desc).table, rng))
            for table in (t, corrupt(t, rng), corrupt(t, rng)):
                blocked, whole = self.outcomes(table, monkeypatch)
                assert blocked == whole, desc

    def test_center_reads_the_generators(self, catalog_groups):
        for g in catalog_groups.values():
            assert ng.center(g) == tuple(np.flatnonzero(g.commuting.all(axis=1)).tolist())

    @pytest.mark.parametrize("desc", ["dihedral(512)", "heisenberg(2,4)", "dicyclic(128)"])
    def test_center_and_inverses_of_relabeled_imports(self, desc, monkeypatch):
        g = relabeled_import(desc, 89)
        assert ng.center(g) == tuple(np.flatnonzero(g.commuting.all(axis=1)).tolist())
        monkeypatch.setattr(cayley, "_BLOCK_ENTRIES", 7 * g.order)
        assert np.array_equal(g.inverses, g.table.argmin(axis=1))

    def test_construct_leaves_the_commuting_matrix_lazy(self):
        g = ng.construct("dihedral(512)", max_order=1024)
        assert len(ng.center(g)) == 2
        assert cayley.CayleyTable.commuting.fget.key not in g._memo

    def test_order_1024_peaks(self):
        # beside the 4 MiB int32 input (or result), one int32 table and
        # row blocks; the whole-table checks peaked at 13, 17 and 25 MiB
        g = ng.construct("dihedral(512)", max_order=1024)
        t = np.array(relabel(g.table, np.random.default_rng(97)), dtype=np.int32)
        assert traced_peak(ng.validate, t) < 6
        # argmin on the read-only table would copy all 4 MiB of it
        h = ng.validate(t)
        assert traced_peak(lambda: h.inverses) < 0.5
        assert traced_peak(ng.construct, "dihedral(512)", max_order=1024) < 10
        text = f"{len(t)}\n" + "\n".join(" ".join(map(str, row)) for row in t.tolist())
        assert traced_peak(ng.parse_group, text) < 12


class TestUint16Tables:
    """Every table is a read-only, C-ordered uint16 array, and a group of
    order above 2**16 is refused before anything n-by-n is allocated."""

    def test_every_source_gives_a_read_only_c_ordered_uint16_table(self, tmp_path):
        g = ng.construct("product(dihedral(4),cyclic(3))")
        path = tmp_path / "g.cay"
        ng.export_group(g, str(path))
        moved = relabel(g.table, np.random.default_rng(5))
        tables = {
            **{desc: ng.construct(desc).table for desc in [
                "cyclic(7)", "abelian(4,2)", "dihedral(5)", "dicyclic(3)",
                "heisenberg(3,1)", "heisenberg(2,2)", "product(dihedral(4),cyclic(3))"]},
            "validate(int64)": ng.validate(g.table.astype(np.int64)).table,
            "validate(list)": ng.validate(moved).table,
            "validate(float)": ng.validate(g.table.astype(float)).table,
            "parse_group": ng.parse_group(ng.format_group(g)).table,
            "import_group": ng.import_group(str(path)).table,
            "product_table": cayley.product_table(g.table, g.table),
            "induced_group": ng.induced_group(g, ng.centralizer(g, 1)).table,
        }
        for source, t in tables.items():
            assert t.dtype == np.uint16, source
            assert t.flags.c_contiguous and not t.flags.writeable, source

    def test_validate_refuses_an_order_above_the_limit_before_reading(self):
        # a zero-stride view: nothing of its 65537^2 entries is allocated
        raw = np.broadcast_to(np.int64(0), (65537, 65537))
        with pytest.raises(ng.OrderOverflow, match="has order 65537, above the limit 65536"):
            ng.validate(raw)

    def test_construct_and_products_refuse_an_order_above_the_limit(self):
        for desc in ["cyclic(65537)", "product(dihedral(128),dicyclic(64),cyclic(2))"]:
            with pytest.raises(ng.OrderOverflow, match="above the limit 65536"):
                ng.construct(desc, max_order=10**6)
        with pytest.raises(ng.OrderOverflow, match="order 65792, above the limit"):
            cayley.product_table(np.zeros((257, 257), np.uint16), np.zeros((256, 256), np.uint16))

    def test_the_limit_is_inclusive_and_checked_after_the_short_text(self, monkeypatch):
        six, seven = ng.construct("dihedral(3)"), ng.construct("cyclic(7)")
        text = ng.format_group(seven)
        monkeypatch.setattr(cayley, "_MAX_ORDER", 6)
        assert ng.validate(six.table).order == 6
        assert ng.parse_group(ng.format_group(six)).order == 6
        with pytest.raises(ng.OrderOverflow, match="table\\(order=7\\) has order 7"):
            ng.parse_group(text)
        with pytest.raises(ng.OrderOverflow):
            ng.validate(seven.table)
        with pytest.raises(ng.OrderOverflow):
            ng.construct("cyclic(7)")
        # a text too short for the order fails its first short row first
        with pytest.raises(ng.CayParseError, match="^line 3: expected 7 entries, found 2$"):
            ng.parse_group("\n".join(text.splitlines()[:2] + ["0 1"]))

    def test_order_1024_peaks(self):
        # beside the int32 input, one uint16 table and row blocks; with int32
        # tables these peaked at 4.6, 8.0 and 9.5 MiB
        g = ng.construct("dihedral(512)", max_order=1024)
        t = np.array(relabel(g.table, np.random.default_rng(97)), dtype=np.int32)
        assert traced_peak(ng.validate, t) < 3
        assert traced_peak(ng.construct, "dihedral(512)", max_order=1024) < 4
        text = f"{len(t)}\n" + "\n".join(" ".join(map(str, row)) for row in t.tolist())
        assert traced_peak(ng.parse_group, text) < 5
