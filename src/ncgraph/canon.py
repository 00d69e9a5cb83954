"""Complete canonical labeling for graphs, and isomorphism search on top of it.

Two graphs receive the same certificate if and only if they are isomorphic.
The pipeline:

1. Partition the vertices into twin classes -- vertices with equal open
   neighbourhoods (false twins, pairwise non-adjacent) and, among the rest,
   vertices with equal closed neighbourhoods (true twins, pairwise adjacent).
   Any isomorphism maps twin classes onto twin classes of the same size and
   kind, and all adjacency between two distinct classes is all-or-nothing.
2. Contract each class to one vertex of a coloured quotient graph, colour
   (class size, class kind), verifying the all-or-nothing block property.
3. Canonically label the quotient by individualization-refinement: equitable
   refinement of the colour partition, branching on the first smallest
   non-singleton cell, pruning branches with automorphisms discovered from
   equal-encoding leaves, keeping the lexicographically least encoding.
4. Expand the winning quotient order to a full-graph vertex order (classes in
   quotient order, members ascending) and emit the adjacency matrix under
   that order as the certificate bytes.

Step 4 is well defined because every entry of the expanded matrix depends
only on data frozen by the leaf encoding: within a class adjacency is decided
by the class kind, and between classes by the quotient edge.  Equal leaf
encodings therefore give byte-identical certificates, and conversely equal
certificates exhibit an explicit isomorphism (the matrices are equal entry
for entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InternalInconsistency, NotAnIsomorphism
from .graphs import NcGraph, adjacency_matrix, iter_bits

_AUT_CAP = 64
_LEAF_STORE_CAP = 4096


@dataclass(frozen=True)
class TwinClass:
    """A maximal set of mutually twin vertices; kind 0 = singleton,
    1 = equal open neighbourhoods, 2 = equal closed neighbourhoods."""

    members: tuple
    kind: int


def twin_partition(graph: NcGraph) -> tuple:
    """Partition local vertices into twin classes, ordered by least member."""
    n = graph.num_vertices
    open_groups = {}
    for v in range(n):
        open_groups.setdefault(graph.adj[v], []).append(v)
    classes = []
    leftovers = []
    for vs in open_groups.values():
        if len(vs) >= 2:
            classes.append(TwinClass(tuple(sorted(vs)), 1))
        else:
            leftovers.append(vs[0])
    closed_groups = {}
    for v in leftovers:
        closed_groups.setdefault(graph.adj[v] | 1 << v, []).append(v)
    for vs in closed_groups.values():
        if len(vs) >= 2:
            classes.append(TwinClass(tuple(sorted(vs)), 2))
        else:
            classes.append(TwinClass((vs[0],), 0))
    classes.sort(key=lambda c: c.members[0])
    return tuple(classes)


def _build_quotient(graph: NcGraph, classes: tuple):
    """Coloured quotient adjacency; verifies every inter-class block is constant
    and every class interior matches its kind."""
    k = len(classes)
    cmasks = [0] * k
    for a, c in enumerate(classes):
        for v in c.members:
            cmasks[a] |= 1 << v
    qadj = [0] * k
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            want = None
            for u in classes[a].members:
                inter = graph.adj[u] & cmasks[b]
                got = cmasks[b] if inter == cmasks[b] else (0 if inter == 0 else None)
                if got is None or (want is not None and got != want):
                    raise InternalInconsistency(
                        f"block between twin classes {a} and {b} is not constant"
                    )
                want = got
            if want:
                qadj[a] |= 1 << b
    for a, c in enumerate(classes):
        for u in c.members:
            inter = graph.adj[u] & cmasks[a]
            if c.kind == 1 and inter:
                raise InternalInconsistency(f"open-twin class {a} contains an edge")
            if c.kind == 2 and inter != cmasks[a] & ~(1 << u):
                raise InternalInconsistency(f"closed-twin class {a} is not a clique")
    colors = tuple((len(c.members), c.kind) for c in classes)
    return tuple(qadj), colors


class _QuotientSearch:
    """Individualization-refinement canonical labeling of a coloured graph."""

    def __init__(self, qadj, colors):
        self.adj = qadj
        self.colors = colors
        self.n = len(qadj)
        self.best_enc = None
        self.best_pi = None
        self.leaves = {}
        self.auts = []
        self._aut_set = set()

    def run(self):
        by_color = {}
        for v in range(self.n):
            by_color.setdefault(self.colors[v], []).append(v)
        cells = [tuple(by_color[c]) for c in sorted(by_color)]
        self._search(cells, ())
        return self.best_pi, self.best_enc

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
        cells = self._refine(cells)
        if all(len(c) == 1 for c in cells):
            self._leaf(tuple(c[0] for c in cells))
            return
        size = min(len(c) for c in cells if len(c) > 1)
        ti = next(i for i, c in enumerate(cells) if len(c) == size)
        target = cells[ti]
        pruned = set()
        for v in target:
            if v in pruned:
                continue
            rest = tuple(u for u in target if u != v)
            self._search(cells[:ti] + [(v,), rest] + cells[ti + 1:], base + (v,))
            pruned |= self._orbit(v, base)

    def _orbit(self, v, base):
        gens = [g for g in self.auts if all(g[b] == b for b in base)]
        orbit = {v}
        frontier = [v]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        return orbit

    def _leaf(self, pi):
        enc = self._encode(pi)
        if self.best_enc is None or enc < self.best_enc:
            self.best_enc, self.best_pi = enc, pi
        prev = self.leaves.get(enc)
        if prev is None:
            if len(self.leaves) < _LEAF_STORE_CAP:
                self.leaves[enc] = pi
            return
        if prev == pi or len(self.auts) >= _AUT_CAP:
            return
        gamma = [0] * self.n
        for k in range(self.n):
            gamma[prev[k]] = pi[k]
        gamma = tuple(gamma)
        if gamma in self._aut_set:
            return
        self._verify_automorphism(gamma)
        self.auts.append(gamma)
        self._aut_set.add(gamma)

    def _verify_automorphism(self, gamma):
        for v in range(self.n):
            if self.colors[gamma[v]] != self.colors[v]:
                raise InternalInconsistency(
                    "leaf-derived map does not preserve quotient colours"
                )
            image = 0
            for j in iter_bits(self.adj[v]):
                image |= 1 << gamma[j]
            if image != self.adj[gamma[v]]:
                raise InternalInconsistency(
                    "leaf-derived map does not preserve quotient adjacency"
                )

    def _encode(self, pi):
        head = bytearray()
        for v in pi:
            size, kind = self.colors[v]
            head += size.to_bytes(4, "big") + bytes([kind])
        bits = 0
        npairs = 0
        for i in range(self.n):
            ai = self.adj[pi[i]]
            for j in range(i + 1, self.n):
                bits = bits << 1 | (ai >> pi[j] & 1)
                npairs += 1
        nbytes = (npairs + 7) // 8
        bits <<= nbytes * 8 - npairs
        return bytes(head) + bits.to_bytes(nbytes, "big")


@lru_cache(maxsize=256)
def _canon(graph: NcGraph):
    classes = twin_partition(graph)
    qadj, colors = _build_quotient(graph, classes)
    q_pi, _ = _QuotientSearch(qadj, colors).run()
    order = tuple(v for q in q_pi for v in classes[q].members)
    n = graph.num_vertices
    perm = np.array(order, dtype=np.int64)
    mat = adjacency_matrix(graph)[np.ix_(perm, perm)]
    iu, ju = np.triu_indices(n, k=1)
    cert = n.to_bytes(4, "big") + np.packbits(mat[iu, ju]).tobytes()
    return order, cert


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
    (degree, sorted neighbour degrees) pairs."""
    degs = graph.degrees()
    local = tuple(
        sorted(
            (degs[i], tuple(sorted(degs[j] for j in graph.neighbors(i))))
            for i in range(graph.num_vertices)
        )
    )
    return (graph.num_vertices, graph.num_edges, tuple(sorted(degs)), local)


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
        for i in range(n):
            image = 0
            for j in iter_bits(self.source.adj[i]):
                image |= 1 << self.mapping[j]
            if image != self.target.adj[self.mapping[i]]:
                j = next(iter_bits(image ^ self.target.adj[self.mapping[i]]))
                raise NotAnIsomorphism(
                    f"adjacency not preserved at vertex {i}",
                    witness=(i, j),
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
    order_a = canonical_order(a)
    order_b = canonical_order(b)
    mapping = [0] * a.num_vertices
    for k in range(a.num_vertices):
        mapping[order_a[k]] = order_b[k]
    return Isomorphism(a, b, tuple(mapping))
