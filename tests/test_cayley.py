import numpy as np
import pytest

import ncgraph as ng
from ncgraph import cayley
from ncgraph.cayley import is_prime

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
        real = cayley._right_closure

        def counting(arr, mask, frontier, gens):
            checked.append(len(gens))
            return real(arr, mask, frontier, gens)

        monkeypatch.setattr(cayley, "_right_closure", counting)
        h = ng.validate(t)
        assert h.order == g.order
        assert len(ng.center(h)) == len(ng.center(g))
        # one right closure per checked generator; a group never needs
        # more than log2(n) of them
        assert 1 <= len(checked) <= int(np.log2(g.order))


class TestStructure:
    def test_center_of_dihedral_8(self):
        d4 = ng.construct("dihedral(4)")
        assert ng.center(d4).sorted_members == (0, 2)

    def test_centralizer_of_rotation(self):
        d4 = ng.construct("dihedral(4)")
        c = ng.centralizer(d4, 1)
        assert c.sorted_members == (0, 1, 2, 3)
        assert c.subgroup_flag
        assert ng.centralizer_size(d4, 1) == 4

    def test_centralizer_index_error(self):
        d4 = ng.construct("dihedral(4)")
        with pytest.raises(ng.IndexOutOfRange):
            ng.centralizer(d4, 8)
        for x in (8, -1):
            with pytest.raises(ng.IndexOutOfRange):
                ng.centralizer_size(d4, x)

    def test_conjugacy_classes_dihedral_8(self):
        d4 = ng.construct("dihedral(4)")
        assert sorted(len(c) for c in ng.conjugacy_classes(d4)) == [1, 1, 2, 2, 2]

    def test_class_sizes_divide_order(self):
        for name in ("dihedral(6)", "dicyclic(3)", "heisenberg(3,1)"):
            g = ng.construct(name)
            for cls in ng.conjugacy_classes(g):
                assert g.order % len(cls) == 0

    def test_element_orders_cyclic_6(self):
        orders = ng.element_orders(ng.construct("cyclic(6)"))
        assert orders.tolist() == [1, 6, 3, 2, 3, 6]

    def test_upper_central_series_dihedral_8(self):
        d4 = ng.construct("dihedral(4)")
        sizes = [len(s) for s in ng.upper_central_series(d4)]
        assert sizes == [1, 2, 8]
        assert ng.is_nilpotent(d4) == (True, 2)

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
        bad = ng.ElementSet(parent=d4, members=frozenset({0, 1}), subgroup_flag=False)
        with pytest.raises(ng.NotASubgroup):
            ng.induced_group(d4, bad)

    def test_generate_subgroup(self):
        d4 = ng.construct("dihedral(4)")
        assert ng.generate_subgroup(d4, [1]).sorted_members == (0, 1, 2, 3)
        assert ng.generate_subgroup(d4, [1, 4]).sorted_members == tuple(range(8))

    def test_generate_subgroup_matches_two_sided_closure(self):
        rng = np.random.default_rng(5)
        for desc in ("dihedral(12)", "heisenberg(3,1)", "product(dicyclic(2),cyclic(3))"):
            g = ng.construct(desc)
            t = g.table.tolist()
            for size in (0, 1, 2, 3):
                seed = rng.integers(g.order, size=size).tolist()
                members = {0, *seed}
                while True:
                    grown = members | {t[x][y] for x in members for y in members}
                    if grown == members:
                        break
                    members = grown
                got = ng.generate_subgroup(g, seed)
                assert got.members == frozenset(members)
                assert g.order % len(got) == 0

    def test_generate_subgroup_rejects_bad_seed(self):
        d4 = ng.construct("dihedral(4)")
        with pytest.raises(ng.IndexOutOfRange):
            ng.generate_subgroup(d4, [1, 8])

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
    """The per-element power walk that element_orders replaced."""
    t = g.table.tolist()
    orders = [1] * g.order
    for x in range(1, g.order):
        k, y = 1, x
        while y != 0:
            y = t[y][x]
            k += 1
        orders[x] = k
    return orders


def relabeled_import(desc, seed):
    """``desc`` imported from .cay text with its elements relabeled."""
    t = relabel(ng.construct(desc).table, np.random.default_rng(seed))
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
    def test_series_and_orders_match_the_loops(self, desc, seed):
        g = relabeled_import(desc, seed)
        assert [s.members for s in ng.upper_central_series(g)] == old_upper_central_series(g)
        assert ng.element_orders(g).tolist() == old_element_orders(g)

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
        assert [s.members for s in series] == old_upper_central_series(g)
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
            assert ids.setdefault(int(data.ids[x]), c.members) == c.members
        assert len(set(ids.values())) == len(ids)
        if not g.is_abelian:
            noncentral = [x for x in range(g.order) if len(ng.centralizer(g, x)) < g.order]
            assert ng.is_ac_group(g) == all(
                ng.induced_group(g, ng.centralizer(g, x)).is_abelian for x in noncentral)


class TestProductsAndSylow:
    def test_direct_product_orders(self):
        a = ng.construct("dihedral(3)")
        b = ng.construct("cyclic(5)")
        p = ng.direct_product(a, b)
        assert p.order == 30
        orders_a = ng.element_orders(a)
        orders_p = ng.element_orders(p)
        # element (x, y) has order lcm(|x|, |y|)
        assert orders_p[5 * 1 + 1] == np.lcm(orders_a[1], 5)

    def test_direct_product_overflow(self):
        d16 = ng.construct("dihedral(16)")
        with pytest.raises(ng.OrderOverflow):
            ng.direct_product(d16, d16, max_order=512)

    def test_prime_factorization(self):
        assert ng.prime_factorization(360) == {2: 3, 3: 2, 5: 1}
        assert ng.prime_factorization(1) == {}

    def test_is_prime(self):
        assert [p for p in range(-2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert is_prime(1_000_003) and not is_prime(1_000_001)

    def test_sylow_cyclic_12(self):
        factors = ng.sylow_decomposition(ng.construct("cyclic(12)"))
        assert [(f.prime, len(f.members), f.abelian) for f in factors] == [
            (2, 4, True), (3, 3, True)]

    def test_sylow_two_nonabelian_factors(self):
        h = ng.construct("product(dicyclic(2),heisenberg(3,1))")
        factors = ng.sylow_decomposition(h)
        assert [(f.prime, len(f.members), f.abelian) for f in factors] == [
            (2, 8, False), (3, 27, False)]
        assert ng.nonabelian_sylow_count(h) == 2

    def test_sylow_rejects_non_nilpotent(self):
        with pytest.raises(ng.NotNilpotent):
            ng.sylow_decomposition(ng.construct("dihedral(3)"))

    def test_sylow_members_form_subgroups(self):
        g = ng.construct("product(dihedral(4),cyclic(3))")
        for f in ng.sylow_decomposition(g):
            sub = ng.induced_group(g, f.members)
            assert sub.order == len(f.members)
