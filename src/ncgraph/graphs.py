"""Non-commuting graphs of finite groups.

The graph of a non-abelian group has the non-central elements as vertices and
an edge between two elements exactly when they do not commute.  Adjacency is
stored as one arbitrary-size integer bitmask per vertex, which makes
neighbourhood intersections during refinement single `&` operations.  Each
graph also holds those masks unpacked once into a read-only n-by-n boolean
matrix, which the whole-graph operations (relabeling, the multipartite test,
certificates and isomorphism checks) work on.
"""

from __future__ import annotations

from collections import Counter
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


def unpack_masks(masks) -> np.ndarray:
    """Bitmasks over positions 0..n-1 unpacked to an n-by-n boolean matrix.

    Bits at positions n and above are dropped; ``NcGraph`` rejects them
    before it unpacks its own masks.
    """
    n = len(masks)
    width = (n + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").view(bool)


def pack_rows(mat: np.ndarray) -> tuple:
    """The rows of a boolean matrix as bitmasks, bit j for column j."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def adjacency_matrix(graph: NcGraph) -> np.ndarray:
    """The graph's read-only n-by-n boolean adjacency matrix.

    It is unpacked once, when the graph is constructed, and shared by every
    caller; copy it before writing.
    """
    return graph._matrix


@dataclass(frozen=True)
class NcGraph:
    """An undirected graph on the non-central elements of a group.

    ``vertices[i]`` is the parent element index of local vertex i (ascending);
    ``adj[i]`` is a bitmask over local vertex positions.  Construction checks
    symmetry and irreflexivity, and keeps the unpacked adjacency matrix for
    ``adjacency_matrix``.  Derived forms (the canonical labeling, the degree
    profile) are memoised on the graph and freed with it; like the matrix,
    they sit outside the dataclass fields, so equality and hashing see only
    the fields.
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
        mat = unpack_masks(self.adj)
        loops = np.flatnonzero(mat.diagonal())
        if loops.size:
            raise ValueError(f"vertex {loops[0]} has a self-loop")
        if not np.array_equal(mat, mat.T):
            i, j = np.argwhere(mat & ~mat.T)[0]
            raise ValueError(f"edge {i}-{j} is not symmetric")
        mat.flags.writeable = False
        object.__setattr__(self, "_matrix", mat)
        object.__setattr__(self, "_memo", {})

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
        """Connected components of the complement graph, as sorted tuples,
        ordered by least member.

        Breadth-first over the non-adjacency matrix: each vertex enters the
        frontier once, so the whole walk reads each matrix row once.
        """
        nonadj = ~self._matrix
        unseen = np.ones(len(self.vertices), dtype=bool)
        comps = []
        for start in range(len(self.vertices)):
            if not unseen[start]:
                continue
            unseen[start] = False
            frontier = np.zeros_like(unseen)
            frontier[start] = True
            comp = frontier.copy()
            while frontier.any():
                frontier = nonadj[frontier].any(axis=0) & unseen
                unseen &= ~frontier
                comp |= frontier
            comps.append(tuple(np.flatnonzero(comp).tolist()))
        return comps

    def multipartite_parts(self):
        """Part sizes (descending) if the graph is complete multipartite, else None.

        A graph is complete multipartite exactly when "equal or non-adjacent"
        is an equivalence relation; its classes are then the parts.  That
        relation is reflexive and symmetric, so it is an equivalence exactly
        when its distinct rows are disjoint, that is, when their sizes add
        up to n.  The multiplicity of each distinct row is then its part size.
        The rows are the complemented masks, so no matrix is needed.
        """
        full = (1 << len(self.adj)) - 1
        rows = Counter(~mask & full for mask in self.adj)
        if sum(row.bit_count() for row in rows) != len(self.adj):
            return None
        return tuple(sorted(rows.values(), reverse=True))


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
    v = np.flatnonzero(~central)
    verts = tuple(v.tolist())
    sub = ~comm[v][:, v]
    np.fill_diagonal(sub, False)
    adj = pack_rows(sub)
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

    ``perm[i]`` is the new position of old vertex i; ``perm`` must be a
    permutation of ``range(n)``.  Parent metadata is kept; the parent-element
    list is permuted alongside the vertices, so vertex ``perm[i]`` still
    refers to the same group element.
    """
    n = graph.num_vertices
    p = np.asarray(perm)
    if (p.shape != (n,) or (n and p.dtype.kind not in "iu")
            or not np.array_equal(np.sort(p), np.arange(n))):
        raise ValueError(f"perm is not a permutation of range({n})")
    old = np.argsort(p)  # old[k] is the vertex that moves to position k
    return NcGraph(
        vertices=tuple(graph.vertices[k] for k in old.tolist()),
        adj=pack_rows(adjacency_matrix(graph)[old][:, old]),
        parent_descriptor=graph.parent_descriptor,
        parent_order=graph.parent_order,
        parent_center_size=graph.parent_center_size,
    )
