"""Non-commuting graphs of finite groups.

The graph of a non-abelian group has the non-central elements as vertices and
an edge between two elements exactly when they do not commute.  Adjacency is
stored as one arbitrary-size integer bitmask per vertex, which makes
neighbourhood intersections during refinement single `&` operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cayley import CayleyTable, center
from .errors import AbelianInput, InternalInconsistency


def iter_bits(mask: int):
    """Positions of the set bits of a non-negative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def adjacency_matrix(graph: NcGraph) -> np.ndarray:
    """The adjacency masks unpacked to an n-by-n boolean matrix.

    Bits at positions n and above are dropped; ``NcGraph`` rejects them
    before it unpacks its own masks.
    """
    n = len(graph.adj)
    width = (n + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in graph.adj)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :n].astype(bool)


@dataclass(frozen=True)
class NcGraph:
    """An undirected graph on the non-central elements of a group.

    ``vertices[i]`` is the parent element index of local vertex i (ascending);
    ``adj[i]`` is a bitmask over local vertex positions.  Construction checks
    symmetry and irreflexivity.
    """

    vertices: tuple
    adj: tuple
    parent_descriptor: str
    parent_order: int
    parent_center_size: int

    def __post_init__(self):
        n = len(self.vertices)
        if len(self.adj) != n:
            raise ValueError("adjacency length does not match the vertex list")
        for i, mask in enumerate(self.adj):
            if mask >> n:
                raise ValueError(f"vertex {i} has neighbour bits outside 0..{n - 1}")
        mat = adjacency_matrix(self)
        loops = np.flatnonzero(mat.diagonal())
        if loops.size:
            raise ValueError(f"vertex {loops[0]} has a self-loop")
        one_way = np.argwhere(mat & ~mat.T)
        if one_way.size:
            i, j = one_way[0]
            raise ValueError(f"edge {i}-{j} is not symmetric")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def degrees(self) -> tuple:
        return tuple(mask.bit_count() for mask in self.adj)

    @property
    def is_regular(self) -> bool:
        degs = self.degrees()
        return len(set(degs)) <= 1

    def neighbors(self, i: int) -> tuple:
        return tuple(iter_bits(self.adj[i]))

    def edges(self) -> list:
        """All edges as local (i, j) pairs with i < j, lexicographic."""
        return [(i, j) for i, mask in enumerate(self.adj)
                for j in iter_bits(mask >> (i + 1) << (i + 1))]

    def complement_components(self) -> list:
        """Connected components of the complement graph, as sorted tuples."""
        n = len(self.vertices)
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
                nonadj = ~self.adj[v] & full & ~(1 << v)
                new = nonadj & unseen
                comp |= new
                frontier |= new
                unseen &= ~new
            comps.append(tuple(iter_bits(comp)))
        return comps

    def multipartite_parts(self):
        """Part sizes (descending) if the graph is complete multipartite, else None.

        A graph is complete multipartite exactly when every connected
        component of its complement is an independent set of this graph:
        those components are then the parts.
        """
        comps = self.complement_components()
        for comp in comps:
            for idx, i in enumerate(comp):
                for j in comp[idx + 1:]:
                    if self.adj[i] >> j & 1:
                        return None
        return tuple(sorted((len(c) for c in comps), reverse=True))


def build_nc_graph(g: CayleyTable) -> NcGraph:
    """The non-commuting graph of a non-abelian group, memoised on the table.

    Post-conditions checked on the first build rather than assumed: the
    vertex count equals the group order minus the centre size, and no vertex
    is isolated (a non-central element always fails to commute with
    something).
    """
    if g.is_abelian:
        raise AbelianInput(
            f"{g.descriptor}: the non-commuting graph of an abelian group is empty"
        )
    graph = g._memo.get("graph")
    if graph is not None:
        return graph
    comm = g.commuting
    central = comm.all(axis=1)
    verts = tuple(int(v) for v in np.nonzero(~central)[0])
    sub = ~comm[np.ix_(verts, verts)]
    np.fill_diagonal(sub, False)
    packed = np.packbits(sub, axis=1, bitorder="little")
    adj = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    graph = NcGraph(
        vertices=verts,
        adj=adj,
        parent_descriptor=g.descriptor,
        parent_order=g.order,
        parent_center_size=len(center(g)),
    )
    if graph.num_vertices != g.order - graph.parent_center_size:
        raise InternalInconsistency(
            f"{g.descriptor}: graph has {graph.num_vertices} vertices but the "
            f"group has {g.order - graph.parent_center_size} non-central elements"
        )
    for i, mask in enumerate(adj):
        if mask == 0:
            raise InternalInconsistency(
                f"{g.descriptor}: non-central element {verts[i]} has no "
                f"non-commuting partner"
            )
    g._memo["graph"] = graph
    return graph


def relabeled(graph: NcGraph, perm) -> NcGraph:
    """The same abstract graph with local vertices renamed by ``perm``.

    ``perm[i]`` is the new position of old vertex i.  Parent metadata is kept;
    the parent-element list is permuted alongside the vertices, so vertex
    ``perm[i]`` still refers to the same group element.
    """
    n = len(graph.vertices)
    new_vertices = [0] * n
    new_adj = [0] * n
    for i in range(n):
        new_vertices[perm[i]] = graph.vertices[i]
        mask = 0
        for j in iter_bits(graph.adj[i]):
            mask |= 1 << perm[j]
        new_adj[perm[i]] = mask
    return NcGraph(
        vertices=tuple(new_vertices),
        adj=tuple(new_adj),
        parent_descriptor=graph.parent_descriptor,
        parent_order=graph.parent_order,
        parent_center_size=graph.parent_center_size,
    )
