from collections import Counter

import numpy as np
import pytest

import ncgraph as ng

from ncgraph.graphs import pack_rows


def iter_bits(mask: int):
    """Positions of the set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def matrix_from_edges(n, edges):
    mat = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        mat[i, j] = mat[j, i] = True
    return mat


def edge_list(graph):
    """The edges as (i, j) pairs with i < j, lexicographic."""
    return list(map(tuple, np.argwhere(np.triu(graph.matrix, 1)).tolist()))


def make_graph(n, edges):
    return ng.NcGraph(vertices=tuple(range(n)), matrix=matrix_from_edges(n, edges),
                      parent_descriptor="handmade", parent_order=n + 1,
                      parent_center_size=1)


def rows(*masks, width=None):
    """A boolean matrix whose row i has bit j of ``masks[i]`` in column j."""
    width = len(masks) if width is None else width
    return np.array([[bool(m >> j & 1) for j in range(width)] for m in masks],
                    dtype=bool).reshape(len(masks), width)


class TestBuild:
    def test_dihedral_8_graph_is_octahedron(self):
        g = ng.construct("dihedral(4)")
        graph = ng.build_nc_graph(g)
        assert graph.num_vertices == 6
        assert graph.num_edges == 12
        assert tuple(sorted(graph.degrees())) == (4, 4, 4, 4, 4, 4)
        assert graph.is_regular
        assert graph.multipartite_parts() == (2, 2, 2)

    def test_vertices_are_noncentral_parent_indices(self):
        g = ng.construct("dihedral(4)")
        graph = ng.build_nc_graph(g)
        assert graph.vertices == (1, 3, 4, 5, 6, 7)  # everything but {0, 2}
        assert graph.parent_order == 8
        assert graph.parent_center_size == 2
        assert graph.parent_descriptor == "dihedral(4)"

    def test_abelian_input_rejected(self):
        g = ng.construct("cyclic(6)")
        for _ in range(2):  # the graph memo must not skip the check
            with pytest.raises(ng.AbelianInput):
                ng.build_nc_graph(g)

    def test_graph_is_memoised_on_its_table(self):
        g = ng.construct("dihedral(5)")
        assert ng.build_nc_graph(g) is ng.build_nc_graph(g)
        # another table of the same group builds an equal, separate graph
        other = ng.build_nc_graph(ng.construct("dihedral(5)"))
        assert other == ng.build_nc_graph(g)
        assert other is not ng.build_nc_graph(g)

    def test_adjacency_matches_commutation(self):
        g = ng.construct("dicyclic(3)")
        graph = ng.build_nc_graph(g)
        t = g.table
        for i, x in enumerate(graph.vertices):
            for j, y in enumerate(graph.vertices):
                expect = bool(t[x, y] != t[y, x])
                assert bool(graph.adj[i] >> j & 1) == expect

    def test_dihedral_16_parts(self):
        graph = ng.build_nc_graph(ng.construct("dihedral(8)"))
        assert graph.multipartite_parts() == (6, 2, 2, 2, 2)
        assert tuple(sorted(graph.degrees())) == (8,) * 6 + (12,) * 8
        assert not graph.is_regular

    def test_heisenberg_27_parts(self):
        graph = ng.build_nc_graph(ng.construct("heisenberg(3,1)"))
        assert graph.multipartite_parts() == (6, 6, 6, 6)
        assert graph.is_regular

    def test_large_heisenberg_not_multipartite(self):
        graph = ng.build_nc_graph(ng.construct("heisenberg(3,2)"))
        assert graph.num_vertices == 240
        assert set(graph.degrees()) == {162}
        assert graph.multipartite_parts() is None


class TestInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            ng.NcGraph(vertices=(0, 1), matrix=rows(0b01, 0b01),
                       parent_descriptor="x", parent_order=3,
                       parent_center_size=1)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ng.NcGraph(vertices=(0, 1, 2), matrix=rows(0b010, 0b000, 0b000),
                       parent_descriptor="x", parent_order=4,
                       parent_center_size=1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ng.NcGraph(vertices=(0, 1), matrix=rows(0b10),
                       parent_descriptor="x", parent_order=3,
                       parent_center_size=1)

    def test_out_of_range_bits_rejected(self):
        # a neighbour in column 2 of a two-vertex graph
        with pytest.raises(ValueError):
            ng.NcGraph(vertices=(0, 1), matrix=rows(0b110, 0b001, width=3),
                       parent_descriptor="x", parent_order=3,
                       parent_center_size=1)

    def test_negative_mask_rejected(self):
        # an entry that is neither False nor True
        with pytest.raises(ValueError, match="outside"):
            ng.NcGraph(vertices=(0, 1), matrix=np.array([[0, -2], [1, 0]]),
                       parent_descriptor="x", parent_order=3,
                       parent_center_size=1)

    def test_messages_name_the_offending_vertex(self):
        with pytest.raises(ValueError, match="vertex 2 has a self-loop"):
            ng.NcGraph(vertices=(0, 1, 2), matrix=rows(0b010, 0b001, 0b100),
                       parent_descriptor="x", parent_order=4,
                       parent_center_size=1)
        with pytest.raises(ValueError, match="edge 1-2 is not symmetric"):
            ng.NcGraph(vertices=(0, 1, 2), matrix=rows(0b010, 0b101, 0b000),
                       parent_descriptor="x", parent_order=4,
                       parent_center_size=1)

    @pytest.mark.parametrize("matrix", [
        np.array([[0, 1], [1, 0]]), np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[False, True], [True, False]], dtype=object)])
    def test_non_bool_matrix_rejected(self, matrix):
        with pytest.raises(ValueError, match="entries outside bool"):
            ng.NcGraph(vertices=(0, 1), matrix=matrix, parent_descriptor="x",
                       parent_order=3, parent_center_size=1)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 1), ()])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="does not fit 2 vertices"):
            ng.NcGraph(vertices=(0, 1), matrix=np.zeros(shape, dtype=bool),
                       parent_descriptor="x", parent_order=3, parent_center_size=1)

    def test_writeable_input_is_copied_and_frozen(self):
        mat = matrix_from_edges(3, [(0, 1), (1, 2)])
        graph = ng.NcGraph(vertices=(0, 1, 2), matrix=mat, parent_descriptor="x",
                           parent_order=4, parent_center_size=1)
        assert graph.matrix is not mat and mat.flags.writeable
        assert not graph.matrix.flags.writeable and graph.matrix.flags.c_contiguous
        mat[0, 1] = mat[1, 0] = False   # the caller's array is its own
        assert graph.num_edges == 2
        # a read-only, C-ordered input is held as it is; a transposed view
        # (column-major) is copied to row-major first
        frozen = matrix_from_edges(3, [(0, 2)])
        frozen.flags.writeable = False
        held = ng.NcGraph(vertices=(0, 1, 2), matrix=frozen, parent_descriptor="x",
                          parent_order=4, parent_center_size=1)
        assert held.matrix is frozen
        view = ng.NcGraph(vertices=(0, 1, 2), matrix=frozen.T, parent_descriptor="x",
                          parent_order=4, parent_center_size=1)
        assert view.matrix.flags.c_contiguous and view == held
        # a read-only view of data the caller can still write is copied too
        data = matrix_from_edges(3, [(0, 2)])
        window = data.view()
        window.flags.writeable = False
        kept = ng.NcGraph(vertices=(0, 1, 2), matrix=window, parent_descriptor="x",
                          parent_order=4, parent_center_size=1)
        data[0, 2] = data[2, 0] = False
        assert kept == held and kept.matrix is not window


class TestOperations:
    def test_iter_bits_ascending(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(1 << 200 | 1 << 64)) == [64, 200]

    @pytest.mark.parametrize("descriptor", ["dicyclic(3)", "dihedral(9)",
                                            "product(dihedral(4),cyclic(3))"])
    def test_adjacency_matrix_matches_masks(self, descriptor):
        graph = ng.build_nc_graph(ng.construct(descriptor))
        n = graph.num_vertices
        mat = graph.matrix
        assert mat.dtype == bool and mat.shape == (n, n)
        reference = [[bool(graph.adj[i] >> j & 1) for j in range(n)] for i in range(n)]
        assert mat.tolist() == reference

    def test_handmade_degrees_and_edges(self):
        graph = make_graph(4, [(0, 1), (0, 3), (2, 3)])
        assert graph.degrees() == (2, 1, 1, 2)
        assert graph.num_edges == 3
        assert not graph.is_regular
        assert edge_list(graph) == [(0, 1), (0, 3), (2, 3)]

    def test_complete_bipartite_parts(self):
        # the star K(1,3) and K(2,3): parts counted at their least member
        assert make_graph(4, [(0, 1), (0, 2), (0, 3)]).multipartite_parts() == (3, 1)
        k23 = make_graph(5, [(i, j) for i in (1, 3) for j in (0, 2, 4)])
        assert k23.multipartite_parts() == (3, 2)

    def test_path_not_multipartite(self):
        # path on 4 vertices: complement components are not independent sets
        graph = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.multipartite_parts() is None

    def test_relabeled_preserves_structure(self):
        graph = ng.build_nc_graph(ng.construct("dihedral(5)"))
        rng = np.random.default_rng(3)
        perm = [int(p) for p in rng.permutation(graph.num_vertices)]
        moved = ng.relabeled(graph, perm)
        assert sorted(moved.degrees()) == sorted(graph.degrees())
        assert moved.num_edges == graph.num_edges
        # vertex perm[i] still names the same parent element
        for i in range(graph.num_vertices):
            assert moved.vertices[perm[i]] == graph.vertices[i]
        # edges map exactly
        orig = {(min(perm[i], perm[j]), max(perm[i], perm[j]))
                for i, j in edge_list(graph)}
        assert orig == set(edge_list(moved))

    def test_relabeled_identity(self):
        graph = ng.build_nc_graph(ng.construct("dihedral(3)"))
        same = ng.relabeled(graph, list(range(graph.num_vertices)))
        assert same == graph

    def test_relabeled_rejects_non_permutations(self):
        graph = ng.build_nc_graph(ng.construct("dihedral(4)"))
        assert graph.num_vertices == 6
        for bad in ([0, 0, 1, 2, 3, 4], list(range(7)), list(range(5)),
                    [5, 4, 3, 2, 1, 6], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                    [[0, 1, 2], [3, 4, 5]],
                    # no bool is read as a position, nor a float among ints
                    [True, False, 2, 3, 4, 5], [np.bool_(False), 1, 2, 3, 4, 5],
                    [1, 0, 2, 3, 4, 5.0], ["1", 0, 2, 3, 4, 5], [None] * 6):
            with pytest.raises(ValueError, match=r"not a permutation of range\(6\)"):
                ng.relabeled(graph, bad)
        reversed_graph = ng.relabeled(graph, range(5, -1, -1))
        assert reversed_graph.vertices == graph.vertices[::-1]
        assert ng.relabeled(graph, np.arange(6)) == graph
        swapped = ng.relabeled(graph, [np.int64(1), 0, 2, 3, 4, 5])
        assert swapped == ng.relabeled(graph, [1, 0, 2, 3, 4, 5])
        assert swapped.vertices == (graph.vertices[1], graph.vertices[0], *graph.vertices[2:])

    def test_adjacency_matrix_is_held_and_read_only(self):
        graph = ng.build_nc_graph(ng.construct("dihedral(5)"))
        mat = graph.matrix
        assert graph.matrix is mat
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 1] = not mat[0, 1]
        with pytest.raises(ValueError, match="read-only"):
            mat.fill(False)

    def test_held_forms_stay_outside_equality_and_hash(self):
        a = ng.build_nc_graph(ng.construct("dihedral(6)"))
        ng.certificate(a)
        ng.degree_profile(a)
        b = ng.relabeled(a, range(a.num_vertices))
        assert a == b and hash(a) == hash(b)
        assert "_matrix" not in repr(a) and "_memo" not in repr(a)

    def test_equality_and_hash_follow_the_content(self):
        a = ng.build_nc_graph(ng.construct("dihedral(6)"))
        b = ng.build_nc_graph(ng.construct("dihedral(6)"))   # another table
        assert a is not b and a.matrix is not b.matrix
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != "dihedral(6)" and a != None  # noqa: E711
        n = a.num_vertices
        swapped = ng.relabeled(a, [1, 0] + list(range(2, n)))
        assert swapped != a   # same matrix shape, other vertex list
        flipped = a.matrix.copy()
        i, j = np.argwhere(flipped)[0]
        flipped[i, j] = flipped[j, i] = False
        fields = dict(vertices=a.vertices, parent_descriptor=a.parent_descriptor,
                      parent_order=a.parent_order, parent_center_size=a.parent_center_size)
        assert ng.NcGraph(matrix=flipped, **fields) != a
        assert ng.NcGraph(matrix=a.matrix.copy(), **fields) == a
        for name, value in [("parent_descriptor", "dicyclic(3)"), ("parent_order", 13),
                            ("parent_center_size", 1)]:
            other = ng.NcGraph(matrix=a.matrix, **{**fields, name: value})
            assert other != a and hash(other) != hash(a)

    @pytest.mark.parametrize("descriptor", ["dihedral(4)", "dihedral(9)", "heisenberg(3,1)",
                                            "product(dihedral(4),cyclic(3))"])
    def test_adj_packs_the_matrix_once(self, descriptor):
        graph = ng.build_nc_graph(ng.construct(descriptor))
        assert graph.adj == pack_rows(graph.matrix)
        assert graph.adj is graph.adj
        assert [m.bit_count() for m in graph.adj] == list(graph.degrees())


def old_relabeled(graph, perm):
    """The bit loop that relabeled used before it permuted the matrix."""
    n = len(graph.vertices)
    new_vertices = [0] * n
    new_adj = [0] * n
    for i in range(n):
        new_vertices[perm[i]] = graph.vertices[i]
        mask = 0
        for j in iter_bits(graph.adj[i]):
            mask |= 1 << perm[j]
        new_adj[perm[i]] = mask
    return tuple(new_vertices), tuple(new_adj)


def old_complement_components(graph):
    """Connected components of the complement, by a walk over the bitmask rows."""
    n = len(graph.vertices)
    full = (1 << n) - 1
    unseen = full
    comps = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        comp = 1 << start
        frontier = comp
        unseen &= ~comp
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = ~graph.adj[v] & full & ~(1 << v) & unseen
            comp |= new
            frontier |= new
            unseen &= ~new
        comps.append(tuple(iter_bits(comp)))
    return comps


def old_multipartite_parts(graph):
    """The walk that multipartite_parts used: every complement component must
    be an independent set."""
    comps = old_complement_components(graph)
    for comp in comps:
        for idx, i in enumerate(comp):
            for j in comp[idx + 1:]:
                if graph.adj[i] >> j & 1:
                    return None
    return tuple(sorted((len(c) for c in comps), reverse=True))


def matrix_graph(adjm):
    n = len(adjm)
    return ng.NcGraph(vertices=tuple(range(n)), matrix=adjm,
                      parent_descriptor="handmade", parent_order=n + 1,
                      parent_center_size=1)


def multipartite_with_flip(rng):
    """A seeded complete multipartite graph, and a copy with one vertex pair
    flipped (an edge removed between parts, or added inside one)."""
    sizes = rng.integers(1, 6, size=rng.integers(1, 7))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    adjm = owner[:, None] != owner[None, :]
    n = len(owner)
    flipped = adjm.copy()
    if n > 1:
        i, j = rng.choice(n, size=2, replace=False)
        flipped[i, j] = flipped[j, i] = not adjm[i, j]
    return matrix_graph(adjm), matrix_graph(flipped)


class TestMatrixOracles:
    """relabeled and multipartite_parts against the bitmask loops they
    replaced."""

    def test_relabeled_on_catalog_graphs(self, catalog_groups):
        for index, g in enumerate(catalog_groups.values()):
            graph = ng.build_nc_graph(g)
            rng = np.random.default_rng([51, index])
            for _ in range(2):
                perm = rng.permutation(graph.num_vertices).tolist()
                moved = ng.relabeled(graph, perm)
                assert (moved.vertices, moved.adj) == old_relabeled(graph, perm), g.descriptor

    def test_multipartite_parts_on_catalog_graphs(self, catalog_groups):
        shapes = set()
        for g in catalog_groups.values():
            graph = ng.build_nc_graph(g)
            parts = graph.multipartite_parts()
            assert parts == old_multipartite_parts(graph), g.descriptor
            shapes.add(parts is None)
        assert shapes == {True, False}

    def test_multipartite_parts_on_seeded_flips(self):
        rng = np.random.default_rng(53)
        outcomes = set()
        for _ in range(200):
            for graph in multipartite_with_flip(rng):
                parts = graph.multipartite_parts()
                assert parts == old_multipartite_parts(graph)
                outcomes.add(parts is None)
        assert outcomes == {True, False}

    def test_empty_graph(self):
        graph = ng.NcGraph(vertices=(), matrix=np.zeros((0, 0), dtype=bool), parent_descriptor="x",
                           parent_order=1, parent_center_size=1)
        assert graph.multipartite_parts() == old_multipartite_parts(graph) == ()
        assert ng.relabeled(graph, []) == graph


def mask_degrees(graph):
    """degrees, num_edges and is_regular as they were read from bitmasks."""
    degs = tuple(mask.bit_count() for mask in graph.adj)
    return degs, sum(degs) // 2, len(set(degs)) <= 1


def mask_multipartite_parts(graph):
    """multipartite_parts over the complemented bitmasks, counted by row."""
    full = (1 << len(graph.adj)) - 1
    rows = Counter(~mask & full for mask in graph.adj)
    if sum(row.bit_count() for row in rows) != len(graph.adj):
        return None
    return tuple(sorted(rows.values(), reverse=True))


def assert_matches_masks(graph):
    assert (graph.degrees(), graph.num_edges, graph.is_regular) == mask_degrees(graph)
    assert graph.multipartite_parts() == mask_multipartite_parts(graph)


class TestBitmaskOracles:
    """Degrees and the multipartite test on the matrix against the bitmask
    loops they replaced."""

    def test_catalog_and_bare_family_graphs(self, catalog_groups, bare_family_groups):
        regular, multipartite = set(), set()
        for g in list(catalog_groups.values()) + list(bare_family_groups.values()):
            if g.is_abelian:
                continue
            graph = ng.build_nc_graph(g)
            assert_matches_masks(graph)
            regular.add(graph.is_regular)
            multipartite.add(graph.multipartite_parts() is not None)
        assert regular == multipartite == {True, False}

    @pytest.mark.parametrize("desc", ["dihedral(512)", "heisenberg(2,4)", "heisenberg(3,2)",
                                      "product(dicyclic(2),heisenberg(3,1))"])
    def test_relabeled_graphs(self, desc):
        graph = ng.build_nc_graph(ng.construct(desc, max_order=1024))
        rng = np.random.default_rng(57)
        assert_matches_masks(ng.relabeled(graph, rng.permutation(graph.num_vertices)))

    def test_seeded_flips(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            for graph in multipartite_with_flip(rng):
                assert_matches_masks(graph)
