"""Randomized invariants over the group families, graphs, and repunits."""

from unittest import mock

import numpy as np
import pytest

hyp = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

import ncgraph as ng
from ncgraph import cayfile
from ncgraph.descriptors import GroupDescriptor
from test_cayfile import error_line, reference_rows

SMALL_INT = st.integers(min_value=1, max_value=12)

ABELIAN_LEAF = st.one_of(
    st.builds(lambda k: GroupDescriptor("cyclic", (k,)), SMALL_INT),
    st.builds(lambda ds: GroupDescriptor("abelian", tuple(ds)),
              st.lists(st.integers(1, 8), min_size=1, max_size=3)),
)

NONABELIAN_LEAF = st.one_of(
    st.builds(lambda k: GroupDescriptor("dihedral", (k,)), st.integers(3, 10)),
    st.builds(lambda k: GroupDescriptor("dicyclic", (k,)), st.integers(2, 6)),
    st.sampled_from([GroupDescriptor("heisenberg", (2, 1)),
                     GroupDescriptor("heisenberg", (3, 1))]),
)

LEAF = st.one_of(ABELIAN_LEAF, NONABELIAN_LEAF)

DESCRIPTOR = st.one_of(
    LEAF,
    st.builds(lambda args: GroupDescriptor("product", tuple(args)),
              st.lists(LEAF, min_size=2, max_size=3)),
)

# keep group orders small enough that the property suite stays quick
NONABELIAN_GROUP = st.builds(
    lambda d: ng.construct(d), NONABELIAN_LEAF
)


@given(DESCRIPTOR)
def test_descriptor_string_round_trips(desc):
    assert ng.parse_descriptor(str(desc)) == desc


@given(DESCRIPTOR)
@settings(max_examples=30, deadline=None)
def test_descriptor_order_matches_construction(desc):
    order = ng.descriptor_order(desc)
    if order > 300:
        return
    assert ng.construct(desc, max_order=300).order == order


@given(NONABELIAN_GROUP)
@settings(max_examples=25, deadline=None)
def test_degree_equals_order_minus_centralizer(g):
    graph = ng.build_nc_graph(g)
    for local, element in enumerate(graph.vertices):
        centralizer_size = len(ng.centralizer(g, element))
        assert graph.degrees()[local] == g.order - centralizer_size


@given(NONABELIAN_GROUP, st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_certificate_survives_relabeling(g, rng):
    graph = ng.build_nc_graph(g)
    perm = list(range(graph.num_vertices))
    rng.shuffle(perm)
    assert ng.certificate(ng.relabeled(graph, perm)) == ng.certificate(graph)


@given(NONABELIAN_GROUP)
@settings(max_examples=25, deadline=None)
def test_table_text_round_trips(g):
    again = ng.parse_group(ng.format_group(g), descriptor=g.descriptor)
    assert (again.table == g.table).all()
    assert again.descriptor == g.descriptor


@st.composite
def graph_matrices(draw, n):
    """A graph on n vertices from a drawn edge list, sparse unless the draw
    also takes its complement: so isolated vertices, twins and equal
    components are common."""
    ends = st.integers(0, max(n - 1, 0))
    mat = np.zeros((n, n), dtype=bool)
    for i, j in draw(st.lists(st.tuples(ends, ends), max_size=3 * n)):
        mat[i, j] = mat[j, i] = i != j
    if draw(st.booleans()):
        mat = ~mat & ~np.eye(n, dtype=bool)
    return mat


def as_graph(mat):
    n = len(mat)
    return ng.NcGraph(vertices=tuple(range(n)), matrix=mat, parent_descriptor="drawn",
                      parent_order=n + 1, parent_center_size=1)


@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    graph_matrices(n), graph_matrices(n), st.permutations(range(n)))))
@settings(max_examples=60, deadline=None)
def test_certificates_decide_isomorphism_on_graphs_of_up_to_40_vertices(drawn):
    networkx = pytest.importorskip("networkx")
    a, b, perm = drawn
    try:
        cert_a, cert_b = ng.certificate(as_graph(a)), ng.certificate(as_graph(b))
    except ng.Error:  # a typed refusal is allowed; any other error fails
        return
    assert ng.certificate(ng.relabeled(as_graph(a), perm)) == cert_a
    # graphs are isomorphic exactly when their complements are, and VF2 can
    # take minutes on a dense pair of 26 vertices, so it reads the sparser side
    n = len(a)
    if 2 * np.count_nonzero(a) > n * (n - 1):
        a, b = (~m & ~np.eye(n, dtype=bool) for m in (a, b))
    vf2 = networkx.is_isomorphic(networkx.from_numpy_array(a), networkx.from_numpy_array(b))
    assert (cert_a == cert_b) == vf2


@given(st.one_of(st.sampled_from([7, 8, 9, 15, 16, 17, 63, 64, 65]), st.integers(1, 80)),
       st.sampled_from(["none", "flipped kind", "moved member", "non-constant block"]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_packed_blow_up_check_matches_the_boolean_one(n, plant, seed):
    # a coloured twin graph and its class list, planted or not: the check on
    # packed rows must give the boolean check's quotient or message, and
    # raise exactly when the mask walk does (oracles from test_canon.py)
    import test_canon as canon_tests   # skips with it if networkx is missing
    drawn = canon_tests.planted_contraction(np.random.default_rng(seed), n, plant)
    canon_tests.assert_packed_check_agrees(*drawn)


# every line end of str.splitlines, a "\r\n" pair among them, characters
# that are not line ends (whitespace among them), and lines longer than a window
LINE_PIECE = st.one_of(
    st.sampled_from(["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                     "\x85", "\u2028", "\u2029"]),
    st.sampled_from(["0", "17", " ", "\t", "\x1f", "\xa0", "\u3000"]),
    st.integers(1, 600).map(lambda k: "9" * k),
)


def window_bytes(text):
    """The bytes that cayfile's windows should hold for ``text``: each line
    end one newline at its last character, each separator a space, and "?"
    for any other non-ASCII character."""
    plain = {**dict.fromkeys("\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", "\n"),
             "\t": " ", "\x1f": " "}
    text = text.replace("\r\n", " \n")
    return "".join(plain.get(c, c if c.isascii() else "?") for c in text).encode()


@given(st.lists(LINE_PIECE, max_size=40).map("".join), st.integers(64, 256))
@example(text="a" * 63 + "\r\n" + "b", width=64)
@example(text="a" * 300 + "\n\n" + "b" * 64 + "\r", width=64)
@settings(max_examples=300, deadline=None)
def test_cay_windows_cut_at_the_line_ends_of_splitlines(text, width):
    windows, start = [], 0
    with mock.patch.object(cayfile, "_BLOCK_BYTES", width):
        while start < len(text):
            window = cayfile._window(text, start)
            stop = start + len(window)
            # each window is whole lines of the text, so the error walk
            # splits the same lines from it
            assert len(text[start:stop].splitlines()) == len(window.splitlines())
            windows.append(window)
            start = stop
    assert all(w.endswith(b"\n") for w in windows[:-1])
    joined = b"".join(windows)
    assert joined == window_bytes(text)
    assert len(joined.splitlines()) == len(text.splitlines())


@given(st.integers(1, 12), st.sampled_from([64, 256, 1 << 17]), st.data())
@settings(max_examples=200, deadline=None)
def test_cay_layouts_parse_as_the_oracle(n, width, data):
    # a table text with a random line end after each line and a random
    # separator in each row, and maybe a blank line inserted or the last
    # lines dropped; the kernel's table or error line is the old loop's
    table = ng.construct(f"cyclic({n})").table.tolist()
    ends = st.sampled_from(["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d",
                            "\x1e", "\x85", "\u2028", "\u2029"])
    seps = st.sampled_from([" ", "\t", "\x1f", "  ", " \t\x1f"])
    lines = [f" {n} "] + [data.draw(seps).join(map(str, row)) for row in table]
    if data.draw(st.booleans()):
        lines.insert(data.draw(st.integers(1, n + 1)), data.draw(st.sampled_from(["", " "])))
    lines = lines[:len(lines) - data.draw(st.integers(0, 2))]
    text = "".join(line + data.draw(ends) for line in lines)
    with mock.patch.object(cayfile, "_BLOCK_BYTES", width), \
            mock.patch.object(cayfile, "_adopt", lambda table, name: table):
        try:
            expected = reference_rows(text)
        except ng.CayParseError as exc:
            with pytest.raises(ng.CayParseError) as caught:
                ng.parse_group(text)
            assert error_line(caught.value) == error_line(exc)
        else:
            assert ng.parse_group(text).tolist() == expected


@given(st.integers(2, 50), st.integers(1, 40))
def test_repunit_digits_are_all_ones(base, length):
    value = ng.repunit(base, length)
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    assert digits == [1] * length


@given(st.integers(2, 30), st.integers(2, 30), st.integers(1, 15),
       st.integers(1, 15))
@example(x=2, y=5, m=5, n=3)
def test_search_finds_every_cross_base_repunit_match(x, y, m, n):
    # any coincidence with x < y, n >= 3 and longer x-side must appear in a
    # search box that covers it
    if not (2 <= x < y and n >= 3 and m > n):
        return
    if ng.repunit(x, m) != ng.repunit(y, n):
        return
    found = ng.goormaghtigh_search(max_base=30, max_exp=15)
    assert any(s.x == x and s.y == y and s.m == m and s.n == n for s in found)


# --- typed errors at the boundary ---------------------------------------------

D4 = ng.construct("dihedral(4)")
D4_GRAPH = ng.build_nc_graph(D4)   # 6 vertices

SCALAR = st.one_of(
    st.integers(-10, 10), st.integers(-2 ** 70, 2 ** 70), st.booleans(),
    st.floats(), st.none(), st.text(max_size=2),
    st.integers(-2, 9).map(np.int64), st.booleans().map(np.bool_),
)
# near misses of index sets and permutations, as well as arbitrary lists
SEQUENCE = st.one_of(
    st.lists(SCALAR, max_size=8),
    st.lists(st.integers(0, 8), max_size=8),
    st.permutations(range(6)),
    st.permutations(range(6)).map(lambda p: [np.int64(v) for v in p]),
    st.permutations(range(6)).map(np.array),
    st.permutations(range(6)).map(lambda p: [float(v) for v in p]),
    st.permutations([False, True, 2, 3, 4, 5]),
).flatmap(lambda xs: st.sampled_from([xs, tuple(xs)]))
CONFIG_FIELDS = {
    "families": lambda v: type(v) is tuple and all(type(f) is str for f in v),
    "max_order": lambda v: type(v) is int,
    "cofactor_max": lambda v: type(v) is int,
    "coprime_cofactors": lambda v: type(v) is bool,
    "cache_dir": lambda v: v is None or type(v) is str,
}


def accepted(call, rejection):
    """``call()``, or None if it raises ``rejection``; any other error escapes."""
    try:
        return call()
    except rejection:
        return None


def indices(value) -> bool:
    """Whether value is a sequence of ints or numpy integers, no bools."""
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in value)


@given(st.one_of(SCALAR, SEQUENCE))
@settings(max_examples=300, deadline=None)
def test_boundaries_raise_only_typed_errors(value):
    # each entry point rejects a value with a package error, or with the
    # ValueError it documents, and holds what it accepts as Python ints
    sub = accepted(lambda: ng.induced_group(D4, value), ng.Error)
    if sub is not None:
        assert indices(value) and all(type(x) is int for x in sub.parent_map)
    c = accepted(lambda: ng.centralizer(D4, value), ng.Error)
    size = accepted(lambda: ng.centralizer_size(D4, value), ng.Error)
    assert (c is None) == (size is None)
    if c is not None:
        assert indices([value]) and all(type(x) is int for x in c) and size == len(c)
    phi = accepted(lambda: ng.Isomorphism(D4_GRAPH, D4_GRAPH, value), ng.Error)
    graph = accepted(lambda: ng.relabeled(D4_GRAPH, value), ValueError)
    for held in (phi, graph):
        if held is not None:
            assert indices(value) and sorted(value) == list(range(6))
    if phi is not None:
        assert all(type(v) is int for v in phi.mapping)
    for field, held_as in CONFIG_FIELDS.items():
        config = accepted(lambda: ng.CatalogConfig(**{field: value}), ValueError)
        assert config is None or held_as(getattr(config, field))
