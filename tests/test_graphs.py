import numpy as np
import pytest

import ncgraph as ng
from ncgraph.graphs import adjacency_matrix, iter_bits


def masks_from_edges(n, edges):
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


def make_graph(n, edges):
    return ng.NcGraph(vertices=tuple(range(n)), adj=masks_from_edges(n, edges),
                      parent_descriptor="handmade", parent_order=n + 1,
                      parent_center_size=1)


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
            ng.NcGraph(vertices=(0, 1), adj=(0b01, 0b01),
                       parent_descriptor="x", parent_order=3,
                       parent_center_size=1)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            ng.NcGraph(vertices=(0, 1, 2), adj=(0b010, 0b000, 0b000),
                       parent_descriptor="x", parent_order=4,
                       parent_center_size=1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ng.NcGraph(vertices=(0, 1), adj=(0b10,),
                       parent_descriptor="x", parent_order=3,
                       parent_center_size=1)

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(ValueError):
            ng.NcGraph(vertices=(0, 1), adj=(0b110, 0b001),
                       parent_descriptor="x", parent_order=3,
                       parent_center_size=1)

    def test_negative_mask_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ng.NcGraph(vertices=(0, 1), adj=(-2, 0b01),
                       parent_descriptor="x", parent_order=3,
                       parent_center_size=1)

    def test_messages_name_the_offending_vertex(self):
        with pytest.raises(ValueError, match="vertex 2 has a self-loop"):
            ng.NcGraph(vertices=(0, 1, 2), adj=(0b010, 0b001, 0b100),
                       parent_descriptor="x", parent_order=4,
                       parent_center_size=1)
        with pytest.raises(ValueError, match="edge 1-2 is not symmetric"):
            ng.NcGraph(vertices=(0, 1, 2), adj=(0b010, 0b101, 0b000),
                       parent_descriptor="x", parent_order=4,
                       parent_center_size=1)


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
        mat = adjacency_matrix(graph)
        assert mat.dtype == bool and mat.shape == (n, n)
        reference = [[bool(graph.adj[i] >> j & 1) for j in range(n)] for i in range(n)]
        assert mat.tolist() == reference
        for i in range(n):
            assert graph.neighbors(i) == tuple(j for j in range(n) if reference[i][j])

    def test_edges_sorted(self):
        graph = make_graph(4, [(0, 1), (2, 3), (0, 3)])
        assert graph.edges() == [(0, 1), (0, 3), (2, 3)]

    def test_neighbors(self):
        graph = make_graph(4, [(0, 1), (0, 3), (2, 3)])
        assert graph.neighbors(0) == (1, 3)
        assert graph.degree(0) == 2

    def test_complement_components_octahedron(self):
        graph = ng.build_nc_graph(ng.construct("dihedral(4)"))
        comps = graph.complement_components()
        assert sorted(len(c) for c in comps) == [2, 2, 2]

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
                for i, j in graph.edges()}
        assert orig == set(moved.edges())

    def test_relabeled_identity(self):
        graph = ng.build_nc_graph(ng.construct("dihedral(3)"))
        same = ng.relabeled(graph, list(range(graph.num_vertices)))
        assert same == graph
