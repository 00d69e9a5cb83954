"""Complete canonical labeling for graphs, and isomorphism search on top of it.

Two graphs receive the same certificate if and only if they are isomorphic.
The pipeline:

1. Partition the vertices into coloured twin classes -- vertices of one
   colour with equal open neighbourhoods (kind 1, pairwise non-adjacent) or,
   among the rest, equal closed neighbourhoods (kind 2, pairwise adjacent).
   The graph's own vertices all share one colour.  Any colour-preserving
   isomorphism maps twin classes onto twin classes of the same size, kind
   and colour, and all adjacency between two distinct classes is
   all-or-nothing.
2. Contract each class to one vertex of a coloured quotient graph, verifying
   the all-or-nothing block property and each class interior.  A class of
   two or more vertices gets the colour (class size, class kind, member
   colour); a singleton keeps its colour.  Repeat steps 1 and 2 on the
   quotient until no twin class is left.
3. Canonically label the final quotient by individualization-refinement:
   equitable refinement of the colour partition, branching on the first
   smallest non-singleton cell, keeping the lexicographically least leaf
   encoding.  Each leaf is compared with the first leaf and the best leaf
   found so far, and with no other.  An equal encoding yields an
   automorphism, which is verified and stored; the search then jumps back to
   the node where the current path leaves that leaf's path, and at every
   node skips the children in the orbit of an explored child under the
   stored automorphisms that fix the node's base pointwise.
4. Expand the winning quotient order to a full-graph vertex order, each
   quotient vertex recursively into its class members (members ascending at
   every level), and emit the adjacency matrix under that order as the
   certificate bytes.

Step 4 is well defined because every entry of the expanded matrix depends
only on data frozen by the leaf encoding.  Between two quotient vertices
adjacency is decided by the quotient edge.  Within one, it is decided by the
colour, by induction on the nesting: the members of a kind-1 class are
pairwise non-adjacent, those of a kind-2 class pairwise adjacent, and each
member's own block is decided by the member colour.  The encoding spells
each nested colour out in full, so equal leaf encodings give byte-identical
certificates, and conversely equal certificates exhibit an explicit
isomorphism (the matrices are equal entry for entry).  The least encoding
does not depend on the labeling, because pruning drops only subtrees whose
leaves are images, under a verified automorphism, of leaves in a subtree
already explored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency, NotAnIsomorphism
from .graphs import NcGraph, adjacency_matrix, iter_bits, unpack_masks

# Bumped whenever the certificate bytes of some graph change; stores of
# certificates key on it so that they never hand back bytes of another version.
CERT_VERSION = 2


@dataclass(frozen=True)
class TwinClass:
    """A maximal set of mutually twin vertices; kind 0 = singleton,
    1 = equal open neighbourhoods, 2 = equal closed neighbourhoods."""

    members: tuple
    kind: int


def _twin_classes(adj, colors) -> list:
    """Coloured twin classes, members ascending, ordered by least member."""
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


def twin_partition(graph: NcGraph) -> tuple:
    """Partition local vertices into twin classes, ordered by least member."""
    return tuple(_twin_classes(graph.adj, (b"",) * graph.num_vertices))


def _contract(adj, colors, classes):
    """Coloured quotient adjacency; verifies every inter-class block is constant
    and every class interior matches its kind."""
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
                raise InternalInconsistency(
                    f"block between twin classes {a} and {b} is not constant"
                )
            inter = adj[u] & cmask
            if kind == 1 and inter:
                raise InternalInconsistency(f"open-twin class {a} contains an edge")
            if kind == 2 and inter != cmask & ~(1 << u):
                raise InternalInconsistency(f"closed-twin class {a} is not a clique")
        row = 0
        rest = outside
        while rest:
            b = owner[(rest & -rest).bit_length() - 1]
            if outside & cmasks[b] != cmasks[b]:
                raise InternalInconsistency(
                    f"block between twin classes {a} and {b} is not constant"
                )
            row |= 1 << b
            rest &= ~cmasks[b]
        qadj.append(row)
        color = colors[members[0]]
        if kind:
            color = len(members).to_bytes(4, "big") + bytes([kind]) + color
        qcolors.append(color)
    return tuple(qadj), tuple(qcolors)


def _contract_to_fixpoint(adj):
    """Contract coloured twin classes until none is left.

    Returns the final quotient's adjacency masks and colours, and for each
    quotient vertex the graph vertices it stands for, in expansion order.  A
    colour is a byte string: the base colour is empty, and a contracted class
    prepends a (size: 4 bytes, kind: 1 byte) record to its members' colour.
    """
    colors = (b"",) * len(adj)
    expansion = [(v,) for v in range(len(adj))]
    while True:
        classes = _twin_classes(adj, colors)
        if len(classes) == len(adj):
            return adj, colors, expansion
        adj, colors = _contract(adj, colors, classes)
        expansion = [tuple(v for m in c.members for v in expansion[m])
                     for c in classes]


class _QuotientSearch:
    """Individualization-refinement canonical labeling of a coloured graph."""

    def __init__(self, qadj, colors):
        self.adj = qadj
        self.mat = unpack_masks(qadj)
        self.colors = colors
        self.n = len(qadj)
        self.color_codes = [len(c).to_bytes(4, "big") + c for c in colors]
        self.first = None  # (encoding, leaf, path) of the first leaf
        self.best = None  # (encoding, leaf, path) of the least leaf so far
        self.auts = []  # verified automorphisms with their fixed-point masks

    def run(self):
        by_color = {}
        for v in range(self.n):
            by_color.setdefault(self.colors[v], []).append(v)
        cells = [tuple(by_color[c]) for c in sorted(by_color)]
        self._search(cells, ())
        return self.best[1]

    def _refine(self, cells):
        """Equitable refinement: split cells by neighbour count into each
        splitter cell, restarting the splitter pass after any split."""
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
                        groups.setdefault((self.adj[v] & smask).bit_count(), []).append(v)
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

    def _search(self, cells, base):
        """Explore the subtree below the individualized sequence ``base``.

        Returns the depth to jump back to when a leaf below turned out to be
        equivalent to the first or the best leaf, else None.
        """
        cells = self._refine(cells)
        if all(len(c) == 1 for c in cells):
            return self._leaf(tuple(c[0] for c in cells), base)
        size = min(len(c) for c in cells if len(c) > 1)
        ti = next(i for i, c in enumerate(cells) if len(c) == size)
        target = cells[ti]
        depth = len(base)
        explored = []
        orbits, known = None, -1
        for v in target:
            if explored:
                if known != len(self.auts):
                    orbits, known = self._orbits(base), len(self.auts)
                if orbits[v] in {orbits[u] for u in explored}:
                    continue
            rest = tuple(u for u in target if u != v)
            jump = self._search(cells[:ti] + [(v,), rest] + cells[ti + 1:], base + (v,))
            explored.append(v)
            if jump is not None and jump < depth:
                return jump
        return None

    def _orbits(self, base):
        """Orbit representative of each vertex under the stored automorphisms
        that fix every vertex of ``base``."""
        bmask = 0
        for b in base:
            bmask |= 1 << b
        rep = list(range(self.n))

        def find(x):
            while rep[x] != x:
                rep[x] = rep[rep[x]]
                x = rep[x]
            return x

        for gamma, fixed in self.auts:
            if fixed & bmask != bmask:
                continue
            for x in range(self.n):
                rx, ry = find(x), find(gamma[x])
                if rx != ry:
                    rep[max(rx, ry)] = min(rx, ry)
        return [find(x) for x in range(self.n)]

    def _leaf(self, pi, path):
        enc = self._encode(pi)
        if self.first is None:
            self.first = self.best = (enc, pi, path)
            return None
        for ref_enc, ref_pi, ref_path in (self.first, self.best):
            if enc != ref_enc:
                continue
            gamma = [0] * self.n
            for k in range(self.n):
                gamma[ref_pi[k]] = pi[k]
            self._verify_automorphism(gamma)
            fixed = 0
            for v in range(self.n):
                if gamma[v] == v:
                    fixed |= 1 << v
            self.auts.append((tuple(gamma), fixed))
            # two distinct leaves' paths differ before either one ends
            return next(i for i, (x, y) in enumerate(zip(path, ref_path)) if x != y)
        if enc < self.best[0]:
            self.best = (enc, pi, path)
        return None

    def _verify_automorphism(self, gamma):
        """Raise unless ``gamma`` preserves colours and adjacency; the message
        names the check that fails at the lowest vertex, colours first."""
        recoloured = next((v for v in range(self.n)
                           if self.colors[gamma[v]] != self.colors[v]), self.n)
        g = np.asarray(gamma)
        rewired = np.flatnonzero((self.mat[np.ix_(g, g)] != self.mat).any(axis=1))
        if recoloured <= (rewired[0] if rewired.size else self.n - 1):
            raise InternalInconsistency(
                "leaf-derived map does not preserve quotient colours"
            )
        if rewired.size:
            raise InternalInconsistency(
                "leaf-derived map does not preserve quotient adjacency"
            )

    def _encode(self, pi):
        head = b"".join(self.color_codes[v] for v in pi)
        return head + _upper_bits(self.mat, pi)


def _upper_bits(mat, order) -> bytes:
    """The strict upper triangle of ``mat`` with rows and columns taken in
    ``order``, row by row, packed big-endian and zero-padded to whole bytes."""
    p = np.asarray(order, dtype=np.intp)
    iu, ju = np.triu_indices(len(p), k=1)
    return np.packbits(mat[p[iu], p[ju]]).tobytes()


def _canon(graph: NcGraph):
    """(canonical order, certificate) of the graph, memoised on it."""
    form = graph._memo.get("canon")
    if form is None:
        qadj, colors, expansion = _contract_to_fixpoint(graph.adj)
        q_pi = _QuotientSearch(qadj, colors).run()
        order = tuple(v for q in q_pi for v in expansion[q])
        n = graph.num_vertices
        form = order, n.to_bytes(4, "big") + _upper_bits(adjacency_matrix(graph), order)
        graph._memo["canon"] = form
    return form


def canonical_order(graph: NcGraph) -> tuple:
    """A vertex order (local indices) realising the canonical adjacency matrix."""
    return _canon(graph)[0]


def certificate(graph: NcGraph) -> bytes:
    """Canonical form: vertex count plus the canonically ordered adjacency bits.
    Equal bytes if and only if the graphs are isomorphic."""
    return _canon(graph)[1]


@dataclass(frozen=True)
class CanonicalCertificate:
    """A graph's canonical form together with the vertex order realising it.

    ``encoding`` is the byte string compared across graphs; ``order[k]`` is the
    local vertex placed at canonical position k, so two graphs with equal
    encodings are matched by sending ``a.order[k]`` to ``b.order[k]``.
    """

    encoding: bytes
    order: tuple


def canonical_certificate(graph: NcGraph) -> CanonicalCertificate:
    """Certificate and realising vertex order in one call."""
    order, encoding = _canon(graph)
    return CanonicalCertificate(encoding=encoding, order=order)


def degree_profile(graph: NcGraph) -> tuple:
    """Cheap isomorphism invariant checked before any canonical labeling:
    vertex count, edge count, degree multiset, and the multiset of
    (degree, sorted neighbour degrees) pairs.  Neighbour degrees are counted
    as ``adjacency @ onehot(degree)``; each distinct row becomes a tuple once,
    built from the distinct degree ints.  Memoised on the graph.
    """
    profile = graph._memo.get("degree_profile")
    if profile is None:
        profile = graph._memo["degree_profile"] = _degree_profile(graph)
    return profile


def _degree_profile(graph: NcGraph) -> tuple:
    mat = adjacency_matrix(graph)
    degs = mat.sum(axis=1)
    distinct, cls, counts = np.unique(degs, return_inverse=True, return_counts=True)
    values = distinct.tolist()
    onehot = (cls[:, None] == np.arange(len(values))).astype(np.int32)
    rows = np.column_stack([cls, mat.astype(np.int32) @ onehot])
    uniq, mult = np.unique(rows, axis=0, return_counts=True)

    def spell(row):
        return tuple(v for v, c in zip(values, row) for _ in range(c))

    local = sorted(((values[row[0]], spell(row[1:])), m)
                   for row, m in zip(uniq.tolist(), mult.tolist()))
    return (graph.num_vertices, int(degs.sum()) // 2, spell(counts.tolist()),
            tuple(item for item, m in local for _ in range(m)))


@dataclass(frozen=True)
class Isomorphism:
    """A verified vertex bijection; construction re-checks every edge."""

    source: NcGraph
    target: NcGraph
    mapping: tuple

    def __post_init__(self):
        n = self.source.num_vertices
        if self.target.num_vertices != n:
            raise NotAnIsomorphism(
                f"vertex counts differ: {n} vs {self.target.num_vertices}"
            )
        if sorted(self.mapping) != list(range(n)):
            raise NotAnIsomorphism("mapping is not a bijection on vertex positions")
        m = np.array(self.mapping, dtype=np.int64)
        image = adjacency_matrix(self.source)[:, np.argsort(m)]  # row i: m(N(i))
        bad = image != adjacency_matrix(self.target)[m]
        rows = np.flatnonzero(bad.any(axis=1))
        if rows.size:
            i = int(rows[0])
            raise NotAnIsomorphism(
                f"adjacency not preserved at vertex {i}",
                witness=(i, int(np.argmax(bad[i]))),
            )

    def apply(self, i: int) -> int:
        return self.mapping[i]


def find_isomorphism(a: NcGraph, b: NcGraph):
    """An explicit verified isomorphism between the graphs, or None.

    Cheap invariants first, then certificate comparison; on a match the two
    canonical orders are composed into a concrete bijection, which the
    Isomorphism constructor re-verifies edge by edge.
    """
    if degree_profile(a) != degree_profile(b):
        return None
    cert_a = certificate(a)
    cert_b = certificate(b)
    if cert_a != cert_b:
        return None
    mapping = np.empty(a.num_vertices, dtype=np.int64)
    mapping[list(canonical_order(a))] = canonical_order(b)
    return Isomorphism(a, b, tuple(mapping.tolist()))
