import hashlib
from collections import deque

import numpy as np
import pytest

import ncgraph as ng
from ncgraph import canon
from ncgraph.canon import TwinClass
from ncgraph.graphs import pack_rows

networkx = pytest.importorskip("networkx")


def iter_bits(mask: int):
    """Positions of the set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def unpack_masks(masks) -> np.ndarray:
    """Bitmasks over positions 0..n-1 unpacked to an n-by-n boolean matrix."""
    n = len(masks)
    return np.array([[bool(m >> j & 1) for j in range(n)] for m in masks],
                    dtype=bool).reshape(n, n)


def to_networkx(graph):
    G = networkx.Graph()
    G.add_nodes_from(range(graph.num_vertices))
    G.add_edges_from(np.argwhere(np.triu(graph.matrix, 1)).tolist())
    return G


def random_graph(rng, n):
    """Random symmetric graph with no isolated vertices, as an NcGraph."""
    m = np.triu(rng.random((n, n)) < 0.4, 1)
    adjm = m | m.T
    for i in range(n):
        if not adjm[i].any():
            j = (i + 1) % n
            adjm[i, j] = adjm[j, i] = True
    return to_ncgraph(adjm)


def blow_up(adjm, sizes, closed):
    """Replace vertex i by a class of sizes[i] twins, pairwise adjacent
    (closed twins) where closed[i] holds and pairwise non-adjacent otherwise."""
    owner = np.repeat(np.arange(len(adjm)), sizes)
    same = owner[:, None] == owner[None, :]
    big = np.where(same, closed[owner][:, None], adjm[np.ix_(owner, owner)])
    np.fill_diagonal(big, False)
    return big


def to_ncgraph(adjm):
    n = len(adjm)
    return ng.NcGraph(vertices=tuple(range(n)), matrix=adjm,
                      parent_descriptor="random", parent_order=n + 1,
                      parent_center_size=1)


GRAPHS = [
    "dihedral(3)", "dihedral(4)", "dihedral(5)", "dihedral(8)",
    "dicyclic(2)", "dicyclic(4)", "heisenberg(3,1)",
    "product(dihedral(4),cyclic(3))",
]


class TestCertificate:
    def test_known_equal_pairs(self):
        pairs = [
            ("dihedral(4)", "dicyclic(2)"),
            ("dihedral(4)", "heisenberg(2,1)"),
            ("dihedral(6)", "dicyclic(3)"),
            ("dihedral(8)", "dicyclic(4)"),
            ("dihedral(16)", "dicyclic(8)"),
        ]
        for a, b in pairs:
            ca = ng.certificate(ng.build_nc_graph(ng.construct(a)))
            cb = ng.certificate(ng.build_nc_graph(ng.construct(b)))
            assert ca == cb, (a, b)

    def test_known_unequal_pairs(self):
        names = ["dihedral(4)", "dihedral(5)", "dihedral(8)", "heisenberg(3,1)",
                 "product(dihedral(4),cyclic(3))"]
        certs = [ng.certificate(ng.build_nc_graph(ng.construct(n))) for n in names]
        assert len(set(certs)) == len(certs)

    def test_canonical_order_is_permutation(self):
        for name in GRAPHS:
            graph = ng.build_nc_graph(ng.construct(name))
            order = ng.canonical_order(graph)
            assert sorted(order) == list(range(graph.num_vertices))

    def test_certificate_length(self):
        graph = ng.build_nc_graph(ng.construct("dihedral(4)"))
        n = graph.num_vertices
        assert len(ng.certificate(graph)) == 4 + (n * (n - 1) // 2 + 7) // 8

    def test_certificate_is_the_canonically_ordered_matrix(self, catalog_groups):
        for g in catalog_groups.values():
            graph = ng.build_nc_graph(g)
            order = np.array(ng.canonical_order(graph))
            n = graph.num_vertices
            i, j = np.triu_indices(n, 1)
            bits = graph.matrix[order[i], order[j]]
            expected = n.to_bytes(4, "big") + np.packbits(bits).tobytes()
            assert ng.certificate(graph) == expected, g.descriptor

    def test_invariance_under_relabeling(self):
        rng = np.random.default_rng(11)
        for name in GRAPHS:
            graph = ng.build_nc_graph(ng.construct(name))
            cert = ng.certificate(graph)
            for _ in range(5):
                perm = [int(p) for p in rng.permutation(graph.num_vertices)]
                assert ng.certificate(ng.relabeled(graph, perm)) == cert

    def test_agrees_with_vf2_on_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(5, 11))
            a = random_graph(rng, n)
            # a relabeling must collide
            perm = [int(p) for p in rng.permutation(n)]
            assert ng.certificate(ng.relabeled(a, perm)) == ng.certificate(a)
            # an edge toggle must collide exactly when VF2 finds an isomorphism
            b = random_graph(rng, n)
            cert_equal = ng.certificate(a) == ng.certificate(b)
            vf2 = networkx.is_isomorphic(to_networkx(a), to_networkx(b))
            assert cert_equal == vf2

    def test_agrees_with_vf2_on_nested_twins(self):
        # a small graph blown up twice, its copy with one second-level class
        # kind flipped, and a relabeled copy; most need two contraction
        # rounds, and every pair of equal size in the pool is checked
        rng = np.random.default_rng(5)
        pool = []
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = np.triu(rng.random((n, n)) < 0.5, 1)
            mid = blow_up(m | m.T, rng.integers(1, 4, n), rng.random(n) < 0.5)
            sizes = rng.integers(2, 4, len(mid))
            closed = rng.random(len(mid)) < 0.5
            flipped = closed.copy()
            flipped[rng.integers(len(mid))] ^= True
            a = to_ncgraph(blow_up(mid, sizes, closed))
            perm = [int(p) for p in rng.permutation(a.num_vertices)]
            pool += [a, to_ncgraph(blow_up(mid, sizes, flipped)), ng.relabeled(a, perm)]
        outcomes = []
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                if a.num_vertices != b.num_vertices:
                    continue
                cert_equal = ng.certificate(a) == ng.certificate(b)
                vf2 = networkx.is_isomorphic(to_networkx(a), to_networkx(b))
                assert cert_equal == vf2
                outcomes.append(cert_equal)
        assert len(outcomes) >= 200 and 30 < sum(outcomes) < len(outcomes)


def twin_classes(graph):
    """The uncoloured twin classes of a graph, ordered by least member."""
    return canon._twin_classes(graph.matrix, (b"",) * graph.num_vertices)


class TestTwins:
    def test_dihedral_6_twin_classes(self):
        # two commuting rotations (false twins), three mutually
        # non-commuting reflections adjacent to everything (true twins)
        graph = ng.build_nc_graph(ng.construct("dihedral(3)"))
        classes = twin_classes(graph)
        assert [(c.members, c.kind) for c in classes] == [
            ((0, 1), 1), ((2, 3, 4), 2)]

    def test_twin_classes_cover_vertices(self):
        for name in GRAPHS:
            graph = ng.build_nc_graph(ng.construct(name))
            members = [v for c in twin_classes(graph) for v in c.members]
            assert sorted(members) == list(range(graph.num_vertices))

    def test_twin_kinds_are_consistent(self):
        # kind 1 classes are independent sets, kind 2 classes are cliques
        for name in GRAPHS:
            graph = ng.build_nc_graph(ng.construct(name))
            for c in twin_classes(graph):
                for x in c.members:
                    for y in c.members:
                        if x >= y:
                            continue
                        edge = bool(graph.adj[x] >> y & 1)
                        if c.kind == 1:
                            assert not edge
                        elif c.kind == 2:
                            assert edge


class TestContraction:
    @pytest.mark.parametrize("name", [
        "dihedral(64)", "dicyclic(32)", "heisenberg(3,2)", "heisenberg(2,3)"])
    def test_symmetric_family_relabeling_invariance(self, name):
        graph = ng.build_nc_graph(ng.construct(name))
        perm = [int(p) for p in np.random.default_rng(3).permutation(graph.num_vertices)]
        other = ng.relabeled(graph, perm)
        assert ng.certificate(other) == ng.certificate(graph)
        assert ng.find_isomorphism(graph, other) is not None

    def test_dihedral_and_dicyclic_contract_to_at_most_three_vertices(self):
        names = ([f"dihedral({k})" for k in range(3, 41)]
                 + [f"dicyclic({k})" for k in range(2, 21)])
        for name in names:
            graph = ng.build_nc_graph(ng.construct(name))
            qmat, colors, expansion = canon._contract_to_fixpoint(
                graph.matrix)
            assert len(qmat) <= 3, name
            assert len(colors) == len(qmat)
            flat = sorted(v for vs in expansion for v in vs)
            assert flat == list(range(graph.num_vertices)), name

    def test_colours_differing_at_depth_two_encode_differently(self):
        def record(size, kind):
            return size.to_bytes(4, "big") + bytes([kind])

        outer = record(2, 2)
        encodings = set()
        for inner in (record(3, 1), record(3, 2), record(4, 1), b""):
            search = canon._QuotientSearch(unpack_masks((0b10, 0b01)), (outer + inner,) * 2)
            encodings.add(search._encode((0, 1)))
        assert len(encodings) == 4

    def test_contraction_and_automorphism_checks_fire(self):
        path = unpack_masks((0b010, 0b101, 0b010))  # 0 - 1 - 2: only 0 and 2 are twins
        plain = (b"",) * 3
        one = TwinClass((1,), 0)
        with pytest.raises(ng.InternalInconsistency, match="not constant"):
            canon._contract(path, plain, [TwinClass((0, 1), 2), TwinClass((2,), 0)])
        with pytest.raises(ng.InternalInconsistency, match="not a clique"):
            canon._contract(path, plain, [TwinClass((0, 2), 2), one])
        qmat, colors = canon._contract(path, plain, [TwinClass((0, 2), 1), one])
        assert pack_rows(qmat) == (0b10, 0b01)
        assert colors == ((2).to_bytes(4, "big") + b"\x01", b"")
        search = canon._QuotientSearch(path, plain)
        search._verify_automorphism((2, 1, 0))
        with pytest.raises(ng.InternalInconsistency, match="adjacency"):
            search._verify_automorphism((1, 0, 2))


def old_degree_profile(graph):
    """degree_profile by Python loops over the matrix: vertex count, edge
    count and sorted degrees."""
    mat = graph.matrix
    degs = [sum(bool(x) for x in row) for row in mat]
    edges = sum(bool(mat[i, j]) for i in range(len(mat)) for j in range(i))
    return (graph.num_vertices, edges, tuple(sorted(degs)))


def old_isomorphism_witness(source, target, mapping):
    """The bit loop that Isomorphism used to check edges with: the first
    failing source vertex and the lowest differing target position."""
    for i in range(source.num_vertices):
        image = 0
        for j in iter_bits(source.adj[i]):
            image |= 1 << mapping[j]
        diff = image ^ target.adj[mapping[i]]
        if diff:
            return i, next(iter_bits(diff))
    return None


class TestArrayOracles:
    """degree_profile and the Isomorphism edge check against the loops they
    replaced."""

    def test_degree_profile_on_catalog_graphs(self, catalog_groups):
        for g in catalog_groups.values():
            graph = ng.build_nc_graph(g)
            assert ng.degree_profile(graph) == old_degree_profile(graph), g.descriptor

    def test_degree_profile_with_degrees_above_256(self):
        graph = ng.build_nc_graph(ng.construct("heisenberg(7,1)"))
        assert max(graph.degrees()) > 256
        assert ng.degree_profile(graph) == old_degree_profile(graph)

    def test_degree_profile_on_random_graphs(self):
        rng = np.random.default_rng(41)
        for n in range(1, 41):
            for _ in range(3):
                graph = random_graph(rng, n) if n > 1 else to_ncgraph(np.zeros((1, 1), bool))
                assert ng.degree_profile(graph) == old_degree_profile(graph)

    def test_isomorphism_witness_matches_the_bit_loop(self):
        rng = np.random.default_rng(43)
        cases = []
        for a, b in [("dihedral(8)", "dicyclic(4)"), ("heisenberg(3,1)", "heisenberg(3,1)"),
                     ("product(dihedral(4),cyclic(3))", "product(dicyclic(2),cyclic(3))")]:
            phi = ng.find_isomorphism(ng.build_nc_graph(ng.construct(a)),
                                      ng.build_nc_graph(ng.construct(b)))
            cases.append((phi.source, phi.target, phi.mapping))
        for n in (5, 12, 30):
            graph = random_graph(rng, n)
            cases.append((graph, graph, tuple(range(n))))
        outcomes = set()
        for source, target, mapping in cases:
            for _ in range(12):
                bad = list(mapping)
                u, v = rng.choice(len(bad), size=2, replace=False)
                bad[u], bad[v] = bad[v], bad[u]
                expected = old_isomorphism_witness(source, target, bad)
                outcomes.add(expected is None)
                if expected is None:
                    ng.Isomorphism(source, target, tuple(bad))
                    continue
                with pytest.raises(ng.NotAnIsomorphism) as exc:
                    ng.Isomorphism(source, target, tuple(bad))
                assert exc.value.witness == expected
        # some swaps stay isomorphisms (twins), most do not
        assert outcomes == {True, False}


def old_encode(adj, colors, pi):
    """The double loop that _QuotientSearch._encode used: colour head, then
    the permuted upper triangle shifted bit by bit into one big int."""
    head = b"".join(len(colors[v]).to_bytes(4, "big") + colors[v] for v in pi)
    n = len(adj)
    bits = 0
    npairs = 0
    for i in range(n):
        ai = adj[pi[i]]
        for j in range(i + 1, n):
            bits = bits << 1 | (ai >> pi[j] & 1)
            npairs += 1
    nbytes = (npairs + 7) // 8
    bits <<= nbytes * 8 - npairs
    return head + bits.to_bytes(nbytes, "big")


def old_automorphism_failure(adj, colors, gamma):
    """The per-vertex loop that _verify_automorphism used: the message it
    raised first, or None for an automorphism."""
    for v in range(len(adj)):
        if colors[gamma[v]] != colors[v]:
            return "colours"
        image = 0
        for j in iter_bits(adj[v]):
            image |= 1 << gamma[j]
        if image != adj[gamma[v]]:
            return "adjacency"
    return None


def random_quotient(rng, n):
    """Seeded coloured graph on n vertices: masks of a random symmetric
    matrix and colours drawn from nested (size, kind) records."""
    m = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
    adj = tuple(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                for row in m | m.T)
    records = [b"", (2).to_bytes(4, "big") + b"\x01",
               (3).to_bytes(4, "big") + b"\x02" + (2).to_bytes(4, "big") + b"\x01"]
    colors = tuple(records[k] for k in rng.integers(0, int(rng.integers(1, 4)), n))
    return adj, colors


class TestSearchOracles:
    """_QuotientSearch's leaf encoding and automorphism check against the
    loops they replaced."""

    def test_encode_matches_the_double_loop(self):
        rng = np.random.default_rng(61)
        for n in range(1, 41):
            for _ in range(3):
                adj, colors = random_quotient(rng, n)
                search = canon._QuotientSearch(unpack_masks(adj), colors)
                for _ in range(2):
                    pi = tuple(rng.permutation(n).tolist())
                    assert search._encode(pi) == old_encode(adj, colors, pi), n

    def test_planted_maps_are_rejected(self):
        # 0 - 1 - 2 with 0 and 2 coloured apart: swapping them keeps every
        # edge but breaks colours; swapping 0 and 1 keeps colours but not edges
        path = unpack_masks((0b010, 0b101, 0b010))
        search = canon._QuotientSearch(path, (b"a", b"b", b"b"))
        with pytest.raises(ng.InternalInconsistency, match="quotient colours"):
            search._verify_automorphism((2, 1, 0))
        search = canon._QuotientSearch(path, (b"a",) * 3)
        search._verify_automorphism((2, 1, 0))
        with pytest.raises(ng.InternalInconsistency, match="quotient adjacency"):
            search._verify_automorphism((1, 0, 2))

    def test_orbits_use_only_automorphisms_fixing_the_base(self):
        # on four isolated vertices, (0 1) moves the base vertex 0 and (2 3)
        # fixes it: below the base (0,) only the second may merge orbits
        search = canon._QuotientSearch(unpack_masks((0,) * 4), (b"a",) * 4)
        for gamma in ((1, 0, 2, 3), (0, 1, 3, 2)):
            search._verify_automorphism(gamma)
            search.auts.append(gamma)

        def orbits(base):
            roots, folded = search._grow_orbits(np.arange(4), 0, base)
            assert folded == 2
            return roots.tolist()

        assert orbits((0,)) == [0, 1, 2, 2]
        assert orbits((2,)) == [0, 0, 2, 3]
        assert orbits(()) == [0, 0, 2, 2]

    def test_orbits_grown_in_steps_match_orbits_from_scratch(self):
        # a node folds in only the automorphisms stored since it last looked;
        # on six isolated vertices, below the base (5,) the 3-cycle and the
        # transposition merge {0, 1, 2} and {3, 4}, while (4 5) is left out
        search = canon._QuotientSearch(unpack_masks((0,) * 6), (b"a",) * 6)
        steps = [(1, 2, 0, 3, 4, 5), (0, 1, 2, 3, 5, 4), (0, 1, 2, 4, 3, 5)]
        roots, folded = np.arange(6), 0
        for k, gamma in enumerate(steps, 1):
            search._verify_automorphism(gamma)
            search.auts.append(gamma)
            roots, folded = search._grow_orbits(roots, folded, (5,))
            scratch, _ = search._grow_orbits(np.arange(6), 0, (5,))
            assert folded == k
            assert roots.tolist() == scratch.tolist()
        assert roots.tolist() == [0, 0, 0, 3, 3, 5]
        # nothing new: the roots come back as they were
        assert search._grow_orbits(roots, folded, (5,))[0] is roots

    def test_verify_automorphism_matches_the_loop(self):
        rng = np.random.default_rng(67)
        outcomes = set()
        for n in range(1, 25):
            for _ in range(6):
                adj, colors = random_quotient(rng, n)
                search = canon._QuotientSearch(unpack_masks(adj), colors)
                maps = [tuple(range(n)), tuple(rng.permutation(n).tolist())]
                if n > 1:  # one transposition: often breaks one check only
                    u, v = rng.choice(n, size=2, replace=False)
                    swap = list(range(n))
                    swap[u], swap[v] = v, u
                    maps.append(tuple(int(x) for x in swap))
                for gamma in maps:
                    expected = old_automorphism_failure(adj, colors, gamma)
                    outcomes.add(expected)
                    if expected is None:
                        search._verify_automorphism(gamma)
                        continue
                    with pytest.raises(ng.InternalInconsistency,
                                       match=f"quotient {expected}"):
                        search._verify_automorphism(gamma)
        assert outcomes == {None, "colours", "adjacency"}


def old_refine(adj, cells):
    """The restart loop _QuotientSearch._refine ran before the splitter
    queue: split every cell by neighbour count into each cell in turn, and
    start the pass over after any split."""
    while True:
        split = False
        for splitter in cells:
            smask = 0
            for v in splitter:
                smask |= 1 << v
            new_cells = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups = {}
                for v in cell:
                    groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
                if len(groups) == 1:
                    new_cells.append(cell)
                else:
                    split = True
                    for count in sorted(groups):
                        new_cells.append(tuple(groups[count]))
            if split:
                cells = new_cells
                break
        if not split:
            return cells


def queue_refine(adj, cells, queue):
    """The splitter-queue refinement on vertex tuples, counting each vertex's
    neighbours in the splitter one by one: the refined cells, in order."""
    n = len(adj)
    cell_at, waiting = [None] * n, [False] * n
    pos = 0
    for cell in cells:
        cell_at[pos] = cell
        pos += len(cell)
    queue = deque([s for s in range(n) if cell_at[s]] if queue is None else queue)
    for s in queue:
        waiting[s] = True
    while queue:
        s = queue.popleft()
        waiting[s] = False
        smask = sum(1 << v for v in cell_at[s])
        for t in [t for t in range(n) if cell_at[t] and len(cell_at[t]) > 1]:
            groups = {}
            for v in cell_at[t]:
                groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
            if len(groups) == 1:
                continue
            pieces = [tuple(groups[count]) for count in sorted(groups)]
            sizes = [len(piece) for piece in pieces]
            skip = 0 if waiting[t] else sizes.index(max(sizes))
            for k, piece in enumerate(pieces):
                cell_at[t] = piece
                if k != skip:
                    queue.append(t)
                    waiting[t] = True
                t += len(piece)
    return [c for c in cell_at if c]


def positional(cells, n):
    """Cells as _refine takes and returns them: each cell's bitmask at the
    position where it starts, 0 elsewhere."""
    masks, pos = [0] * n, 0
    for cell in cells:
        masks[pos] = sum(1 << v for v in cell)
        pos += len(cell)
    return masks


def assert_equitable_and_agrees(search, cells, queue):
    """Refine by the queue; the result must be the restart loop's set
    partition and, cell for cell in order, the tuple-and-count queue's, and
    every cell must have uniform counts into every cell."""
    refined = search._refine(positional(cells, search.n), queue)
    got = [tuple(iter_bits(mask)) for mask in refined if mask]
    assert positional(got, search.n) == refined
    assert got == queue_refine(search.adj, cells, queue)
    assert sorted(v for c in got for v in c) == list(range(search.n))
    assert sorted(map(sorted, got)) == sorted(map(sorted, old_refine(search.adj, cells)))
    for splitter in got:
        smask = sum(1 << v for v in splitter)
        for cell in got:
            assert len({(search.adj[v] & smask).bit_count() for v in cell}) == 1
    return got


def assert_refinements_agree(qmat, colors):
    """The root refinement of the colour cells, then each single
    individualization below it, queued the way _search queues it."""
    search = canon._QuotientSearch(qmat, colors)
    roots = [tuple(v for v in range(search.n) if colors[v] == c) for c in sorted(set(colors))]
    cells = assert_equitable_and_agrees(search, roots, None)
    start = 0
    for ti, target in enumerate(cells):
        for v in target if len(target) > 1 else ():
            rest = tuple(u for u in target if u != v)
            assert_equitable_and_agrees(
                search, cells[:ti] + [(v,), rest] + cells[ti + 1:], [start])
        start += len(target)


class TestRefineOracle:
    """The splitter-queue refinement against the restart loop it replaced."""

    def test_catalog_quotients(self, catalog_groups):
        for g in catalog_groups.values():
            mat = ng.build_nc_graph(g).matrix
            qmat, colors, _ = canon._contract_to_fixpoint(mat)
            assert_refinements_agree(qmat, colors)

    def test_random_coloured_graphs(self):
        rng = np.random.default_rng(71)
        for k in range(200):
            adj, colors = random_quotient(rng, 1 + k % 40)
            assert_refinements_agree(unpack_masks(adj), colors)

    def test_masks_wider_than_a_machine_word(self):
        # 65-130 vertices: cell masks and count planes span several words
        rng = np.random.default_rng(73)
        for n in range(65, 131, 5):
            adj, colors = random_quotient(rng, n)
            assert_refinements_agree(unpack_masks(adj), colors)


def old_twin_classes(adj, colors):
    """The bitmask grouping that _twin_classes ran before it read matrix rows."""
    open_groups = {}
    for v in range(len(adj)):
        open_groups.setdefault((colors[v], adj[v]), []).append(v)
    classes = []
    leftovers = []
    for vs in open_groups.values():
        if len(vs) >= 2:
            classes.append(TwinClass(tuple(vs), 1))
        else:
            leftovers.append(vs[0])
    closed_groups = {}
    for v in leftovers:
        closed_groups.setdefault((colors[v], adj[v] | 1 << v), []).append(v)
    for vs in closed_groups.values():
        classes.append(TwinClass(tuple(vs), 2 if len(vs) >= 2 else 0))
    classes.sort(key=lambda c: c.members[0])
    return classes


def old_contract(adj, colors, classes):
    """The bitmask walk that _contract ran before the blow-up comparison:
    quotient masks and colours, raising at the first member that fails."""
    owner = [0] * len(adj)
    cmasks = [0] * len(classes)
    for a, c in enumerate(classes):
        for v in c.members:
            owner[v] = a
            cmasks[a] |= 1 << v
    qadj = []
    qcolors = []
    for a, c in enumerate(classes):
        members, kind = c.members, c.kind
        cmask = cmasks[a]
        outside = adj[members[0]] & ~cmask
        for u in members:
            stray = (adj[u] & ~cmask) ^ outside
            if stray:
                b = owner[next(iter_bits(stray))]
                raise ng.InternalInconsistency(
                    f"block between twin classes {a} and {b} is not constant")
            inter = adj[u] & cmask
            if kind == 1 and inter:
                raise ng.InternalInconsistency(f"open-twin class {a} contains an edge")
            if kind == 2 and inter != cmask & ~(1 << u):
                raise ng.InternalInconsistency(f"closed-twin class {a} is not a clique")
        row = 0
        rest = outside
        while rest:
            b = owner[(rest & -rest).bit_length() - 1]
            if outside & cmasks[b] != cmasks[b]:
                raise ng.InternalInconsistency(
                    f"block between twin classes {a} and {b} is not constant")
            row |= 1 << b
            rest &= ~cmasks[b]
        qadj.append(row)
        color = colors[members[0]]
        if kind:
            color = len(members).to_bytes(4, "big") + bytes([kind]) + color
        qcolors.append(color)
    return tuple(qadj), tuple(qcolors)


def assert_contraction_matches(mat, colors):
    """Contract to the fixpoint beside the mask references, comparing the
    classes, the quotient and its colours at every level; returns the
    number of levels."""
    levels = 0
    while True:
        adj = pack_rows(mat)
        classes = canon._twin_classes(mat, colors)
        assert classes == old_twin_classes(adj, colors)
        if len(classes) == len(mat):
            return levels
        mat, qcolors = canon._contract(mat, colors, classes)
        assert (pack_rows(mat), qcolors) == old_contract(adj, colors, classes)
        colors = qcolors
        levels += 1


def random_coloured_twins(rng):
    """A seeded small graph blown up into twin classes, relabeled, with
    colours from a few records so that some twins are split apart."""
    n = int(rng.integers(1, 7))
    m = np.triu(rng.random((n, n)) < 0.5, 1)
    big = blow_up(m | m.T, rng.integers(1, 4, n), rng.random(n) < 0.5)
    q = rng.permutation(len(big))
    records = [b"", b"x", (2).to_bytes(4, "big") + b"\x02"]
    colors = tuple(records[k] for k in rng.integers(0, int(rng.integers(1, 4)), len(big)))
    return big[np.ix_(q, q)], colors


class TestContractionOracles:
    """_twin_classes and _contract on the matrix against the mask walks
    they replaced."""

    def test_catalog_graphs(self, catalog_groups):
        for g in catalog_groups.values():
            graph = ng.build_nc_graph(g)
            assert_contraction_matches(graph.matrix, (b"",) * graph.num_vertices)

    def test_nested_twin_blow_ups(self):
        rng = np.random.default_rng(5)
        levels = []
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m = np.triu(rng.random((n, n)) < 0.5, 1)
            mid = blow_up(m | m.T, rng.integers(1, 4, n), rng.random(n) < 0.5)
            big = blow_up(mid, rng.integers(2, 4, len(mid)), rng.random(len(mid)) < 0.5)
            q = rng.permutation(len(big))
            levels.append(assert_contraction_matches(big[np.ix_(q, q)], (b"",) * len(big)))
        assert max(levels) == 2

    def test_random_coloured_graphs(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            assert_contraction_matches(*random_coloured_twins(rng))

    def test_planted_class_lists_raise_each_message(self):
        # 0 and 1 are closed twins, 2 and 4 open twins; 3 has no twin
        mat = np.zeros((5, 5), bool)
        for u, v in [(0, 1), (0, 2), (1, 2), (0, 4), (1, 4), (2, 3), (3, 4)]:
            mat[u, v] = mat[v, u] = True
        plain = (b"",) * 5
        one = [TwinClass((3,), 0)]
        assert canon._twin_classes(mat, plain) == [
            TwinClass((0, 1), 2), TwinClass((2, 4), 1), *one]
        cases = [
            ([TwinClass((0, 1), 1), TwinClass((2, 4), 1), *one],
             "open-twin class 0 contains an edge"),
            ([TwinClass((0, 1), 2), TwinClass((2, 4), 2), *one],
             "closed-twin class 1 is not a clique"),
            ([TwinClass((0, 1), 2), TwinClass((2, 3), 1), TwinClass((4,), 0)],
             "block between twin classes 0 and 1 is not constant"),
        ]
        for classes, message in cases:
            for contract in (canon._contract, old_contract):
                adj = mat if contract is canon._contract else pack_rows(mat)
                with pytest.raises(ng.InternalInconsistency) as exc:
                    contract(adj, plain, classes)
                assert str(exc.value) == message

    def test_flipped_kinds_raise_as_the_mask_walk(self):
        # a contractible class of the wrong kind fails its interior check
        # only, so both versions name the same class
        rng = np.random.default_rng(83)
        seen = set()
        for _ in range(100):
            mat, colors = random_coloured_twins(rng)
            classes = canon._twin_classes(mat, colors)
            big = [a for a, c in enumerate(classes) if c.kind]
            if not big:
                continue
            a = big[int(rng.integers(len(big)))]
            wrong = list(classes)
            wrong[a] = TwinClass(classes[a].members, 3 - classes[a].kind)
            with pytest.raises(ng.InternalInconsistency) as old:
                old_contract(pack_rows(mat), colors, wrong)
            with pytest.raises(ng.InternalInconsistency) as new:
                canon._contract(mat, colors, wrong)
            assert str(new.value) == str(old.value)
            seen.add(str(old.value).split()[0])
        assert seen == {"open-twin", "closed-twin"}

    def test_moved_members_are_rejected(self):
        # a vertex moved into another class breaks the class it joins
        rng = np.random.default_rng(89)
        rejected = 0
        for _ in range(100):
            mat, colors = random_coloured_twins(rng)
            classes = canon._twin_classes(mat, colors)
            if len(classes) < 2:
                continue
            a, b = (int(x) for x in rng.choice(len(classes), size=2, replace=False))
            members = classes[a].members
            v = members[int(rng.integers(len(members)))]
            target = classes[b]
            wrong = list(classes)
            wrong[b] = TwinClass(tuple(sorted(target.members + (v,))), target.kind or 1)
            rest = tuple(u for u in members if u != v)
            if rest:
                wrong[a] = TwinClass(rest, classes[a].kind if len(rest) > 1 else 0)
            else:
                del wrong[a]
            wrong.sort(key=lambda c: c.members[0])
            try:
                expected = old_contract(pack_rows(mat), colors, wrong)
            except ng.InternalInconsistency:
                with pytest.raises(ng.InternalInconsistency):
                    canon._contract(mat, colors, wrong)
                rejected += 1
            else:
                qmat, qcolors = canon._contract(mat, colors, wrong)
                assert (pack_rows(qmat), qcolors) == expected
        assert rejected > 50, rejected


# Certificates of the bare families up to order 128, each followed by two
# seeded relabelings, hashed in order.  Certificate version 3: the splitter
# queue orders the refined cells differently from version 2.
PINNED_FAMILY_DIGEST = "a7143d92b6ba7b6edc57e407824fffc8efacb5cc73c88b36f933cfce3db29c25"


def test_bare_family_certificates_are_pinned():
    names = ([f"dihedral({k})" for k in range(3, 65)]
             + [f"dicyclic({k})" for k in range(2, 33)]
             + ["heisenberg(2,1)", "heisenberg(2,2)", "heisenberg(2,3)",
                "heisenberg(3,1)", "heisenberg(5,1)"])
    rng = np.random.default_rng(8128)
    digest = hashlib.sha256()
    for name in names:
        graph = ng.build_nc_graph(ng.construct(name))
        digest.update(ng.certificate(graph))
        for _ in range(2):
            perm = rng.permutation(graph.num_vertices)
            digest.update(ng.certificate(ng.relabeled(graph, perm)))
    assert canon.CERT_VERSION == 3
    assert digest.hexdigest() == PINNED_FAMILY_DIGEST


def test_graphs_of_at_most_two_vertices_have_fixed_certificates():
    # built directly: no group has a non-commuting graph this small
    empty, point, pair = (to_ncgraph(np.zeros((n, n), dtype=bool)) for n in range(3))
    edge = to_ncgraph(~np.eye(2, dtype=bool))
    assert ng.certificate(empty) == b"\0\0\0\0"
    assert ng.certificate(point) == b"\0\0\0\1"
    assert ng.certificate(pair) == b"\0\0\0\2\0"
    assert ng.certificate(edge) == b"\0\0\0\2\x80"
    assert [ng.canonical_order(g) for g in (empty, point, pair, edge)] == [
        (), (0,), (0, 1), (0, 1)]


def search_counts(graph, monkeypatch):
    """(refinements, leaves, stored automorphisms) of one canonical
    labeling of the graph's final twin quotient."""
    calls = {"_refine": 0, "_leaf": 0}
    with monkeypatch.context() as m:
        for name in calls:
            def counted(self, *args, _name=name, _method=getattr(canon._QuotientSearch, name)):
                calls[_name] += 1
                return _method(self, *args)
            m.setattr(canon._QuotientSearch, name, counted)
        qmat, colors, _ = canon._contract_to_fixpoint(graph.matrix)
        search = canon._QuotientSearch(qmat, colors)
        search.run()
    return calls["_refine"], calls["_leaf"], len(search.auts)


# Search counters of the natural labeling and of one seeded relabeling: a
# change that only makes nodes cheaper must visit the same nodes.
@pytest.mark.parametrize("name, natural, relabeled", [
    ("heisenberg(2,2)", (20, 7, 6), (17, 6, 5)),
    ("product(dihedral(3),dihedral(3))", (21, 6, 5), (21, 6, 5)),
    ("heisenberg(3,2)", (36, 9, 8), (31, 8, 7)),
    ("heisenberg(2,3)", (49, 13, 12), (40, 11, 10)),
    ("heisenberg(2,4)", (99, 21, 20), (65, 15, 14)),
])
def test_search_counters_are_pinned(name, natural, relabeled, monkeypatch):
    graph = ng.build_nc_graph(ng.construct(name))
    perm = np.random.default_rng(7).permutation(graph.num_vertices)
    assert search_counts(graph, monkeypatch) == natural
    assert search_counts(ng.relabeled(graph, perm), monkeypatch) == relabeled


def test_heisenberg_2_4_relabelings_share_one_certificate():
    # 510 vertices whose twin quotient is 255 vertices of one colour: the
    # size of search the splitter queue is there for
    graph = ng.build_nc_graph(ng.construct("heisenberg(2,4)"))
    qmat, colors, _ = canon._contract_to_fixpoint(graph.matrix)
    assert (len(qmat), len(set(colors))) == (255, 1)
    rng = np.random.default_rng(2024)
    for _ in range(2):
        moved = ng.relabeled(graph, rng.permutation(graph.num_vertices))
        assert ng.certificate(moved) == ng.certificate(graph)
        phi = ng.find_isomorphism(graph, moved)  # verified edge by edge
        assert sorted(phi.mapping) == list(range(graph.num_vertices))


class TestHeldForms:
    def test_canonical_form_and_degrees_are_computed_once(self, monkeypatch):
        graph = ng.build_nc_graph(ng.construct("dihedral(9)"))
        cert, degrees = ng.certificate(graph), graph.degrees()
        order = ng.canonical_order(graph)

        def recomputed(*args):
            pytest.fail("a held form was computed again")

        monkeypatch.setattr(canon, "_contract_to_fixpoint", recomputed)
        for _ in range(3):
            assert ng.certificate(graph) is cert
            assert graph.degrees() is degrees
            assert ng.degree_profile(graph)[2] == tuple(sorted(degrees))
            assert ng.canonical_order(graph) is order
            assert ng.find_isomorphism(graph, graph) is not None

    def test_find_isomorphism_computes_no_degree_profile(self, monkeypatch):
        def profiled(*args):
            pytest.fail("find_isomorphism computed a degree profile")

        monkeypatch.setattr(canon, "degree_profile", profiled)
        d8 = ng.build_nc_graph(ng.construct("dihedral(8)"))
        q8 = ng.build_nc_graph(ng.construct("dicyclic(4)"))
        rng = np.random.default_rng(97)
        fresh = [ng.relabeled(g, rng.permutation(g.num_vertices)) for g in (d8, q8, d8)]
        assert ng.find_isomorphism(fresh[0], fresh[1]) is not None
        assert ng.find_isomorphism(fresh[2], q8) is not None
        d9 = ng.build_nc_graph(ng.construct("dihedral(9)"))
        assert ng.find_isomorphism(ng.relabeled(d9, range(d9.num_vertices)), fresh[0]) is None

    def test_each_graph_holds_its_own_form(self):
        graph = ng.build_nc_graph(ng.construct("dicyclic(6)"))
        moved = ng.relabeled(graph, range(graph.num_vertices - 1, -1, -1))
        assert ng.certificate(moved) == ng.certificate(graph)
        assert ng.canonical_order(moved) != ng.canonical_order(graph)
        phi = ng.find_isomorphism(graph, moved)
        assert phi.mapping != tuple(range(graph.num_vertices))


class TestIsomorphism:
    def test_find_isomorphism_verified(self):
        a = ng.build_nc_graph(ng.construct("dihedral(8)"))
        b = ng.build_nc_graph(ng.construct("dicyclic(4)"))
        phi = ng.find_isomorphism(a, b)
        assert phi is not None
        assert sorted(phi.mapping) == list(range(a.num_vertices))

    def test_mapping_carries_edges_onto_edges(self):
        a = ng.build_nc_graph(ng.construct("dihedral(8)"))
        b = ng.relabeled(a, np.random.default_rng(13).permutation(a.num_vertices))
        m = np.array(ng.find_isomorphism(a, b).mapping)
        edges = np.argwhere(np.triu(a.matrix, 1))
        assert b.matrix[m[edges[:, 0]], m[edges[:, 1]]].all()
        assert len(edges) == b.num_edges

    def test_find_isomorphism_none_for_different_graphs(self):
        a = ng.build_nc_graph(ng.construct("dihedral(4)"))
        b = ng.build_nc_graph(ng.construct("dihedral(8)"))
        assert ng.find_isomorphism(a, b) is None

    def test_wrong_mapping_rejected(self):
        a = ng.build_nc_graph(ng.construct("dihedral(8)"))
        b = ng.build_nc_graph(ng.construct("dicyclic(4)"))
        phi = ng.find_isomorphism(a, b)
        bad = list(phi.mapping)
        # swap the images of a degree-8 and a degree-12 vertex
        degs = a.degrees()
        lo = degs.index(8)
        hi = degs.index(12)
        bad[lo], bad[hi] = bad[hi], bad[lo]
        with pytest.raises(ng.NotAnIsomorphism) as exc:
            ng.Isomorphism(source=a, target=b, mapping=tuple(bad))
        assert exc.value.witness is not None

    def test_mapping_is_held_as_python_ints(self):
        a = ng.build_nc_graph(ng.construct("dihedral(8)"))
        b = ng.build_nc_graph(ng.construct("dicyclic(4)"))
        phi = ng.find_isomorphism(a, b)
        again = ng.Isomorphism(a, b, np.array(phi.mapping))
        assert again.mapping == phi.mapping
        assert all(type(v) is int for v in again.mapping)
        assert ng.audit_isomorphic_pair(ng.construct("dihedral(8)"), ng.construct("dicyclic(4)"),
                                        again).verdict == "consistent"

    def test_non_bijection_rejected(self):
        a = ng.build_nc_graph(ng.construct("dihedral(4)"))
        # no bool is read as a position, nor a float, even a whole one
        d16 = ng.build_nc_graph(ng.construct("dihedral(8)"))
        q16 = ng.build_nc_graph(ng.construct("dicyclic(4)"))
        floats = tuple(map(float, ng.find_isomorphism(d16, q16).mapping))
        for source, target, bad in ((a, a, (0, 0, 1, 2, 3, 4)),
                                    (a, a, (False, True, 2, 3, 4, 5)),
                                    (a, a, (np.bool_(False), 1, 2, 3, 4, 5)),
                                    (a, a, None), (a, a, "012345"), (d16, q16, floats)):
            with pytest.raises(ng.NotAnIsomorphism,
                               match="mapping is not a bijection on vertex positions"):
                ng.Isomorphism(source=source, target=target, mapping=bad)

    def test_degree_profile_prefilter(self):
        a = ng.build_nc_graph(ng.construct("dihedral(4)"))
        b = ng.build_nc_graph(ng.construct("dicyclic(2)"))
        assert ng.degree_profile(a) == ng.degree_profile(b)
        c = ng.build_nc_graph(ng.construct("dihedral(5)"))
        assert ng.degree_profile(a) != ng.degree_profile(c)

    def test_self_isomorphism(self):
        graph = ng.build_nc_graph(ng.construct("heisenberg(3,1)"))
        phi = ng.find_isomorphism(graph, graph)
        assert phi is not None
