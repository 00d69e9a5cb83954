"""Non-commuting graphs of finite groups.

The graph of a non-abelian group has the non-central elements as vertices and
an edge between two elements exactly when they do not commute.  Each graph
holds one read-only n-by-n boolean adjacency matrix, and every operation
(degrees, the multipartite test, relabeling, certificates and isomorphism
checks) reads it.  Rows packed into integer bitmasks (``adj``) are made only
on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cayley import CayleyTable, _memoised, center
from .errors import AbelianInput, InternalInconsistency


def pack_rows(mat: np.ndarray) -> tuple:
    """The rows of a boolean matrix as bitmasks, bit j for column j."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


@dataclass(frozen=True, eq=False)
class NcGraph:
    """An undirected graph on the non-central elements of a group.

    ``vertices[i]`` is the parent element index of local vertex i (ascending);
    ``matrix`` is the boolean adjacency matrix over local vertex positions.
    Construction checks its dtype, shape, symmetry and irreflexivity, and
    holds it read-only and C-ordered (copied unless the input is a read-only
    C-ordered array owning its data).  Equality and hashing follow the
    content: the vertices, the matrix and the parent metadata.  Derived
    forms (the degrees, the packed rows, the canonical labeling) are
    memoised on the graph.
    """

    vertices: tuple
    matrix: np.ndarray = field(repr=False)
    parent_descriptor: str
    parent_order: int
    parent_center_size: int

    def __post_init__(self):
        n = len(self.vertices)
        mat = np.asarray(self.matrix)
        if mat.dtype != bool:
            raise ValueError(f"adjacency matrix of dtype {mat.dtype} has entries outside bool")
        if mat.shape != (n, n):
            raise ValueError(f"adjacency matrix of shape {mat.shape} does not fit {n} vertices")
        loops = np.flatnonzero(mat.diagonal())
        if loops.size:
            raise ValueError(f"vertex {loops[0]} has a self-loop")
        if not np.array_equal(mat, mat.T):
            i, j = np.argwhere(mat & ~mat.T)[0]
            raise ValueError(f"edge {i}-{j} is not symmetric")
        if mat.flags.writeable or mat.base is not None or not mat.flags.c_contiguous:
            mat = mat.copy(order="C")
            mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_memo", {})

    def _key(self) -> tuple:
        return (self.vertices, self.parent_descriptor, self.parent_order,
                self.parent_center_size)

    def __eq__(self, other):
        if not isinstance(other, NcGraph):
            return NotImplemented
        return self is other or (self._key() == other._key()
                                 and np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash(self._key() + (np.packbits(self.matrix).tobytes(),))

    @property
    @_memoised
    def adj(self) -> tuple:
        """The rows as bitmasks, bit j of ``adj[i]`` for the edge i-j."""
        return pack_rows(self.matrix)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.matrix)) // 2

    @_memoised
    def degrees(self) -> tuple:
        return tuple(np.count_nonzero(self.matrix, axis=1).tolist())

    @property
    def is_regular(self) -> bool:
        return len(set(self.degrees())) <= 1

    def multipartite_parts(self):
        """Part sizes (descending) if the graph is complete multipartite, else None.

        A graph is complete multipartite exactly when "equal or non-adjacent"
        is an equivalence relation; its classes are then the parts.  That
        relation is reflexive and symmetric, so it is an equivalence exactly
        when every row equals the row of its least member: for related x and
        y each row's least member then lies in the other's row, so both
        share a least member and a row.  Each part is counted at its least
        member.
        """
        if not self.vertices:
            return ()
        rows = ~self.matrix
        least = rows.argmax(axis=1)
        if not np.array_equal(rows[least], rows):
            return None
        counts = np.bincount(least)
        return tuple(sorted(counts[counts > 0].tolist(), reverse=True))


@_memoised
def build_nc_graph(g: CayleyTable) -> NcGraph:
    """The non-commuting graph of a non-abelian group, memoised on the table.

    The vertices, the elements whose commuting row is not all true, are
    checked against the centre computed from the generators: there must be
    |G| - |Z(G)| of them.  No vertex is isolated, and that is not re-checked:
    a vertex x is one because some y does not commute with it, and that y is
    then a vertex too, and x's neighbour.
    """
    if g.is_abelian:
        raise AbelianInput(
            f"{g.descriptor}: the non-commuting graph of an abelian group is empty"
        )
    comm = g.commuting
    v = np.flatnonzero(~comm.all(axis=1))
    # every element commutes with itself, so the diagonal is already clear
    mat = ~np.take(comm[v], v, axis=1)
    mat.flags.writeable = False
    graph = NcGraph(
        vertices=tuple(v.tolist()),
        matrix=mat,
        parent_descriptor=g.descriptor,
        parent_order=g.order,
        parent_center_size=len(center(g)),
    )
    if graph.num_vertices != g.order - graph.parent_center_size:
        raise InternalInconsistency(
            f"{g.descriptor}: graph has {graph.num_vertices} vertices but the "
            f"group has {g.order - graph.parent_center_size} non-central elements"
        )
    return graph


def _permutation(perm, n: int):
    """``perm`` as a tuple of Python ints if it is a sequence of n ints or
    numpy integers, none of them a bool, that permutes range(n); else None.
    A tuple of Python ints is checked as it is."""
    if type(perm) is tuple and all(type(x) is int for x in perm):
        out = perm
    else:
        p = np.asarray(perm, dtype=object)   # keeps each entry's own type
        if p.shape != (n,):
            return None
        entries = p.tolist()
        types = set(map(type, entries))
        if not all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
            return None
        out = tuple(map(int, entries))
    return out if sorted(out) == list(range(n)) else None


def relabeled(graph: NcGraph, perm) -> NcGraph:
    """The same abstract graph with local vertices renamed by ``perm``.

    ``perm[i]`` is the new position of old vertex i; ``perm`` must be a
    permutation of ``range(n)`` in ints or numpy integers, not bools.
    Parent metadata is kept; the parent-element list is permuted alongside
    the vertices, so vertex ``perm[i]`` still refers to the same group
    element.
    """
    n = graph.num_vertices
    p = _permutation(perm, n)
    if p is None:
        raise ValueError(f"perm is not a permutation of range({n})")
    old = np.argsort(p)  # old[k] is the vertex that moves to position k
    mat = np.take(graph.matrix[old], old, axis=1)
    mat.flags.writeable = False
    return NcGraph(
        vertices=tuple(graph.vertices[k] for k in old.tolist()),
        matrix=mat,
        parent_descriptor=graph.parent_descriptor,
        parent_order=graph.parent_order,
        parent_center_size=graph.parent_center_size,
    )
