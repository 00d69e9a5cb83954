import traceback

import numpy as np
import pytest

import ncgraph as ng
from ncgraph import descriptors
from ncgraph.cayley import product_table
from ncgraph.descriptors import MAX_NESTING

# Frozen from independent models: dihedral(3) from composing the six
# symmetries of a triangle as corner permutations; dicyclic(2) from unit
# quaternion arithmetic with a=i, b=j; heisenberg(2,1) from multiplying
# upper unitriangular 3x3 matrices over the field with two elements.
DIHEDRAL_3 = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 5, 3, 4],
    [2, 0, 1, 4, 5, 3],
    [3, 4, 5, 0, 1, 2],
    [4, 5, 3, 2, 0, 1],
    [5, 3, 4, 1, 2, 0],
]
DICYCLIC_2 = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 2, 3, 0, 7, 4, 5, 6],
    [2, 3, 0, 1, 6, 7, 4, 5],
    [3, 0, 1, 2, 5, 6, 7, 4],
    [4, 5, 6, 7, 2, 3, 0, 1],
    [5, 6, 7, 4, 1, 2, 3, 0],
    [6, 7, 4, 5, 0, 1, 2, 3],
    [7, 4, 5, 6, 3, 0, 1, 2],
]
HEISENBERG_2_1 = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 0, 1, 6, 7, 4, 5],
    [3, 2, 1, 0, 7, 6, 5, 4],
    [4, 5, 7, 6, 0, 1, 3, 2],
    [5, 4, 6, 7, 1, 0, 2, 3],
    [6, 7, 5, 4, 2, 3, 1, 0],
    [7, 6, 4, 5, 3, 2, 0, 1],
]


def nested(levels):
    """A descriptor ``levels`` deep: cyclic(1) inside levels - 1 products."""
    return "product(" * (levels - 1) + "cyclic(1)" + ",cyclic(2))" * (levels - 1)


class TestParsing:
    @pytest.mark.parametrize("text", [
        "cyclic(7)",
        "abelian(4,2)",
        "dihedral(5)",
        "dicyclic(3)",
        "heisenberg(3,2)",
        "product(dihedral(4),cyclic(3))",
        "product(dicyclic(2),heisenberg(3,1),cyclic(5))",
    ])
    def test_round_trip(self, text):
        assert str(ng.parse_descriptor(text)) == text

    def test_whitespace_tolerated(self):
        d = ng.parse_descriptor(" product( dihedral( 4 ) , cyclic(3) ) ")
        assert str(d) == "product(dihedral(4),cyclic(3))"

    @pytest.mark.parametrize("text", [
        "dihedral(2)",          # needs k >= 3
        "dicyclic(1)",          # needs k >= 2
        "heisenberg(4,1)",      # first argument must be prime
        pytest.param("heisenberg(1" + "0" * 400 + ",1)",  # too large for a float
                     id="heisenberg(10**400,1)"),
        "heisenberg(3,0)",      # second argument must be >= 1
        "cyclic(0)",
        "abelian()",
        "frobnicate(3)",        # unknown family
        "dihedral(3",           # unbalanced parenthesis
        "dihedral(3))",         # trailing garbage
        "product(cyclic(2))",   # product needs at least two factors
        "product(cyclic(2),product(dihedral(2),cyclic(5)))",  # nested invalid
        "dihedral(x)",
        "",
        "dihedral(\u00b2)",     # a superscript two is not an ASCII digit
        "dihedral(\u0663)",     # nor is an Arabic-Indic three
        "dihedral(3\u00a0)",    # a no-break space is not ASCII whitespace
        pytest.param("cyclic(" + "1" * 5000 + ")",   # more digits than int() takes
                     id="cyclic(5000 digits)"),
    ])
    def test_bad_descriptors(self, text):
        with pytest.raises(ng.BadDescriptor):
            ng.parse_descriptor(text)

    def test_error_carries_position(self):
        with pytest.raises(ng.BadDescriptor) as exc:
            ng.parse_descriptor("frobnicate(3)")
        assert "frobnicate" in str(exc.value)

    def test_heisenberg_takes_large_primes_up_to_the_exact_test(self):
        assert ng.parse_descriptor("heisenberg(2305843009213693951,1)").args == (2 ** 61 - 1, 1)
        # a Mersenne prime past the range where the prime test is exact
        with pytest.raises(ng.BadDescriptor, match="p < 3317044064679887385961981"):
            ng.parse_descriptor(f"heisenberg({2 ** 89 - 1},1)")

    def test_descriptor_at_the_nesting_limit(self):
        text = nested(MAX_NESTING)
        d = ng.parse_descriptor(text)
        assert str(d) == text
        assert ng.descriptor_order(d) == 2 ** (MAX_NESTING - 1)

    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 1200])
    def test_descriptor_past_the_nesting_limit(self, levels):
        # the name at nesting level MAX_NESTING + 1 follows MAX_NESTING "product("
        with pytest.raises(ng.BadDescriptor, match=f"nesting deeper than {MAX_NESTING} "
                                                   f"levels at position {8 * MAX_NESTING} "):
            ng.parse_descriptor(nested(levels))

    def test_invalid_trees_cannot_be_built(self):
        d = ng.parse_descriptor(nested(MAX_NESTING))
        with pytest.raises(ng.BadDescriptor, match="past the limit"):
            ng.GroupDescriptor("product", (d, ng.GroupDescriptor("cyclic", (2,))))
        with pytest.raises(ng.BadDescriptor, match="dihedral needs one integer >= 3"):
            ng.GroupDescriptor("dihedral", (2,))
        with pytest.raises(ng.BadDescriptor, match="unknown family 'frobnicate'"):
            ng.GroupDescriptor("frobnicate", (3,))

    def test_descriptor_order_matches_construction(self):
        for text in ("dihedral(7)", "dicyclic(5)", "heisenberg(3,2)",
                     "abelian(8,2)", "product(dihedral(3),cyclic(4))"):
            d = ng.parse_descriptor(text)
            assert ng.descriptor_order(d) == ng.construct(text).order


class TestConstruction:
    def test_dihedral_3_table(self):
        assert ng.construct("dihedral(3)").table.tolist() == DIHEDRAL_3

    def test_dicyclic_2_table(self):
        assert ng.construct("dicyclic(2)").table.tolist() == DICYCLIC_2

    def test_heisenberg_2_1_table(self):
        assert ng.construct("heisenberg(2,1)").table.tolist() == HEISENBERG_2_1

    def test_heisenberg_2_1_is_dihedral_8_in_disguise(self):
        # same 8-element 2-group up to isomorphism, different element order
        a = ng.build_nc_graph(ng.construct("heisenberg(2,1)"))
        b = ng.build_nc_graph(ng.construct("dihedral(4)"))
        assert ng.certificate(a) == ng.certificate(b)

    def test_cyclic_equals_abelian_single_factor(self):
        assert np.array_equal(ng.construct("cyclic(12)").table,
                              ng.construct("abelian(12)").table)

    def test_product_index_convention(self):
        # (i1, j1) * (i2, j2) -> index i*m + j with m the second factor order
        g = ng.construct("product(dihedral(3),cyclic(2))")
        d3 = np.array(DIHEDRAL_3)
        for i1 in range(6):
            for j1 in range(2):
                for i2 in range(6):
                    for j2 in range(2):
                        expected = d3[i1, i2] * 2 + (j1 + j2) % 2
                        assert g.table[i1 * 2 + j1, i2 * 2 + j2] == expected

    def test_dihedral_center_sizes(self):
        assert len(ng.center(ng.construct("dihedral(5)"))) == 1
        assert len(ng.center(ng.construct("dihedral(6)"))) == 2

    def test_dicyclic_center_size(self):
        for k in (2, 3, 4):
            assert len(ng.center(ng.construct(f"dicyclic({k})"))) == 2

    def test_heisenberg_center_size(self):
        assert len(ng.center(ng.construct("heisenberg(3,1)"))) == 3
        assert len(ng.center(ng.construct("heisenberg(5,1)"))) == 5

    def test_order_cap(self):
        with pytest.raises(ng.OrderOverflow):
            ng.construct("cyclic(1000)")
        g = ng.construct("cyclic(1000)", max_order=1000)
        assert g.order == 1000

    def test_descriptor_string_attached(self):
        g = ng.construct("product(dihedral(4),cyclic(3))")
        assert g.descriptor == "product(dihedral(4),cyclic(3))"

    def test_accepts_parsed_descriptor_object(self):
        d = ng.parse_descriptor("dihedral(6)")
        assert ng.construct(d).order == 12


class TestFullValidation:
    def test_corrupted_large_table_is_rejected(self, monkeypatch):
        # dihedral(100), order 200: index i is r^i and 100 + i is s r^i.
        # w = r^20 has order 5, so rows x and x*w hold the same five values in
        # the columns w^i * u; rotating the two rows across those columns keeps
        # a Latin square with identity 0 but breaks associativity.
        from ncgraph import descriptors

        good = descriptors._build_raw(ng.parse_descriptor("dihedral(100)"), 512)
        x, w, u = 3, 20, 107
        xw = int(good[x, w])
        cols = [int(good[p, u]) for p in (0, 20, 40, 60, 80)]
        bad = good.copy()
        bad[x, cols], bad[xw, cols] = good[xw, cols], good[x, cols]
        monkeypatch.setattr(descriptors, "_build_raw", lambda desc, max_order: bad)
        with pytest.raises(ng.NotAssociative) as exc:
            ng.construct("dihedral(100)")
        i, j, k = exc.value.witness
        assert bad[bad[i, j], k] != bad[i, bad[j, k]]

    def test_a_kept_error_holds_no_table(self, monkeypatch):
        # construct's own frame is part of the traceback too
        from ncgraph import descriptors

        good = descriptors._build_raw(ng.parse_descriptor("dihedral(100)"), 512)
        bad = good.copy()
        bad[3, [107, 127]] = good[3, [127, 107]]
        monkeypatch.setattr(descriptors, "_build_raw", lambda desc, max_order: bad.copy())
        with pytest.raises((ng.NotLatin, ng.NotAssociative)) as exc:
            ng.construct("dihedral(100)")
        held = [name for frame, _ in traceback.walk_tb(exc.value.__traceback__)
                if frame.f_globals["__name__"].startswith("ncgraph")
                for name, value in frame.f_locals.items()
                if isinstance(value, np.ndarray) and value.size >= 200]
        assert held == []

    def test_a_kept_error_holds_under_64_kib(self, monkeypatch, kept_error):
        from ncgraph import descriptors

        good = descriptors._build_raw(ng.parse_descriptor("dihedral(256)"), 512)
        bad = good.copy()
        bad[3, [107, 127]] = good[3, [127, 107]]
        monkeypatch.setattr(descriptors, "_build_raw", lambda desc, max_order: bad.copy())
        kept, retained, held = kept_error(ng.NotLatin, ng.construct, "dihedral(256)")
        assert kept.witness == (3, 23, 107)   # column 107 repeats a value
        assert retained < 64 * 1024
        assert held == []


# --- the element-wise builders that the block builders replaced ----------------

def old_cyclic_table(k):
    i = np.arange(k)
    return (i[:, None] + i[None, :]) % k


def old_dihedral_table(k):
    n = 2 * k
    idx = np.arange(n)
    e, i = idx // k, idx % k
    e1, e2 = e[:, None], e[None, :]
    i1, i2 = i[:, None], i[None, :]
    ii = np.where(e2 == 1, (i2 - i1) % k, (i1 + i2) % k)
    return (e1 ^ e2) * k + ii


def old_dicyclic_table(k):
    m = 2 * k
    idx = np.arange(2 * m)
    e, i = idx // m, idx % m
    e1, e2 = e[:, None], e[None, :]
    i1, i2 = i[:, None], i[None, :]
    ii = np.where(e2 == 1, (i2 - i1 + k * e1) % m, (i1 + i2) % m)
    return (e1 ^ e2) * m + ii


def old_heisenberg_table(p, k):
    n = p ** (2 * k + 1)
    digits = np.empty((n, 2 * k + 1), dtype=np.int64)
    rem = np.arange(n)
    for pos in range(2 * k, -1, -1):
        digits[:, pos] = rem % p
        rem //= p
    a, b, c = digits[:, :k], digits[:, k:2 * k], digits[:, 2 * k]
    aa = (a[:, None, :] + a[None, :, :]) % p
    bb = (b[:, None, :] + b[None, :, :]) % p
    cc = (c[:, None] + c[None, :] + np.einsum("ik,jk->ij", a, b) % p) % p
    out = np.zeros((n, n), dtype=np.int64)
    for pos in range(k):
        out = out * p + aa[:, :, pos]
    for pos in range(k):
        out = out * p + bb[:, :, pos]
    return out * p + cc


def old_build_raw(desc):
    name, args = desc.name, desc.args
    if name == "cyclic":
        return old_cyclic_table(args[0])
    if name == "abelian":
        tables = [old_cyclic_table(a) for a in args]
    elif name in ("dihedral", "dicyclic", "heisenberg"):
        builder = {"dihedral": old_dihedral_table, "dicyclic": old_dicyclic_table,
                   "heisenberg": old_heisenberg_table}[name]
        return builder(*args)
    else:
        tables = [old_build_raw(a) for a in args]
    out = tables[0]
    for t in tables[1:]:
        out = product_table(out, t)
    return out


def assert_same_raw_table(text, max_order=512):
    desc = ng.parse_descriptor(text)
    new = descriptors._build_raw(desc, max_order)
    old = old_build_raw(desc)
    assert new.shape == old.shape
    assert np.array_equal(new, old), text


class TestBuilderOracles:
    """The block builders against the element-wise ones they replaced."""

    def test_default_catalog(self, catalog_entries):
        assert len(catalog_entries) == 110
        for entry in catalog_entries:
            assert_same_raw_table(entry.descriptor)

    @pytest.mark.parametrize("text", [
        "dihedral(3)", "dihedral(4)", "dihedral(255)", "dihedral(512)",
        "dicyclic(2)", "dicyclic(3)", "dicyclic(63)", "dicyclic(256)",
        "heisenberg(2,1)", "heisenberg(2,3)", "heisenberg(2,4)", "heisenberg(3,2)",
        "heisenberg(3,1)", "heisenberg(5,1)", "heisenberg(7,1)",
        "cyclic(1)", "abelian(4,2,2)", "product(heisenberg(2,2),dicyclic(3))",
    ])
    def test_families_up_to_order_1024(self, text):
        assert_same_raw_table(text, max_order=1024)


# --- the block builders that direct uint16 fills replaced ----------------------

def window_circulant(m, starts):
    cycle = np.tile(np.arange(m, dtype=np.int32), 2)
    return np.lib.stride_tricks.sliding_window_view(cycle, m)[starts]


def block_dihedral_table(k):
    plus, minus = window_circulant(k, np.arange(k)), window_circulant(k, -np.arange(k) % k)
    return np.block([[plus, minus + k], [plus + k, minus]])


def block_dicyclic_table(k):
    m = 2 * k
    i = np.arange(m)
    plus, minus = window_circulant(m, i), window_circulant(m, -i % m)
    return np.block([[plus, minus + m], [plus + m, window_circulant(m, (k - i) % m)]])


class TestDirectFillOracles:
    """The uint16 fills against the int32 sliding-window and np.block builders."""

    def test_bare_families(self, bare_family_groups):
        for text in bare_family_groups:
            desc = ng.parse_descriptor(text)
            new = descriptors._build_raw(desc, 256)
            assert new.dtype == np.uint16 and new.flags.c_contiguous, text
            if desc.name == "dihedral":
                assert np.array_equal(new, block_dihedral_table(*desc.args)), text
            elif desc.name == "dicyclic":
                assert np.array_equal(new, block_dicyclic_table(*desc.args)), text

    @pytest.mark.parametrize("k", [3, 4, 7, 64, 255, 256, 512])
    def test_circulants(self, k):
        rng = np.random.default_rng(k)
        starts = rng.integers(0, k, size=k)
        new = descriptors._circulant(k, starts)
        assert new.dtype == np.uint16
        assert np.array_equal(new, window_circulant(k, starts))
        assert np.array_equal(descriptors._dihedral_table(k), block_dihedral_table(k))
        assert np.array_equal(descriptors._dicyclic_table(k), block_dicyclic_table(k))

    def test_product_tables_are_uint16(self, catalog_entries):
        for entry in catalog_entries:
            new = descriptors._build_raw(ng.parse_descriptor(entry.descriptor), 256)
            assert new.dtype == np.uint16, entry.descriptor
        a, b = old_cyclic_table(4), old_cyclic_table(3)
        pairs = (a[:, None, :, None] * 3 + b[None, :, None, :]).reshape(12, 12)
        for dtype in (np.int32, np.int64, np.int16, np.uint16):
            t = product_table(a.astype(dtype), b.astype(dtype))
            assert t.dtype == np.uint16 and t.flags.c_contiguous
            assert np.array_equal(t, pairs)
