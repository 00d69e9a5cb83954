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
2. Contract each class to its least member, and verify the quotient by
   blowing it back up (a loop on each closed-twin class, the diagonal
   cleared): it must equal the graph's matrix.  A class of two or more
   vertices gets the colour (class size, class kind, member colour); a
   singleton keeps its colour.  Repeat steps 1 and 2 on the quotient until
   no twin class is left.
3. Canonically label the final quotient by individualization-refinement:
   equitable refinement of the colour partition, branching on the first
   smallest non-singleton cell, keeping the lexicographically least leaf
   encoding.  A cell is the bitmask of its vertices, and each node hands
   its refined cells to its children.  Refinement splits cells by neighbour
   counts into splitter cells taken from a queue: every cell at the root,
   and below it only the cell of the vertex just individualized, since the
   cells around it were equitable.  A split cell queues all its pieces if
   it was still waiting, and otherwise all but its first largest piece
   (Hopcroft's rule).  Each leaf is compared with the first leaf and the
   best leaf found so far, and with no other.  An equal encoding yields an
   automorphism, which is verified and stored; the search then jumps back
   to the node where the current path leaves that leaf's path.  Every node
   grows its own orbits, folding in each newly stored automorphism that
   fixes its base pointwise, and skips the children in the orbit of an
   explored child.
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

Every step reads the graph's boolean adjacency matrix, the one form an
``NcGraph`` holds; only step 3 packs bitmask rows, once per search from the
final quotient, and splits its cells with ``&`` on them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .cayley import _memoised, _orbit_roots
from .errors import InternalInconsistency, NotAnIsomorphism
from .graphs import NcGraph, _permutation, pack_rows

# Bumped whenever the certificate bytes of some graph change; stores of
# certificates key on it so that they never hand back bytes of another version.
CERT_VERSION = 3


@dataclass(frozen=True)
class TwinClass:
    """A maximal set of mutually twin vertices; kind 0 = singleton,
    1 = equal open neighbourhoods, 2 = equal closed neighbourhoods."""

    members: tuple
    kind: int


def _rows(mat) -> list:
    """Each row of a boolean matrix as a hashable key: a slice of one packed buffer."""
    packed = np.packbits(mat, axis=1)
    buf, width = packed.tobytes(), packed.shape[1]
    return [buf[i * width:(i + 1) * width] for i in range(len(packed))]


def _twin_classes(mat, colors) -> list:
    """Coloured twin classes, members ascending, ordered by least member."""
    open_groups = {}
    for v, row in enumerate(_rows(mat)):
        open_groups.setdefault((colors[v], row), []).append(v)
    classes = []
    leftovers = []
    for vs in open_groups.values():
        if len(vs) >= 2:
            classes.append(TwinClass(tuple(vs), 1))
        else:
            leftovers.append(vs[0])
    closed = mat[leftovers]
    closed[np.arange(len(leftovers)), leftovers] = True
    closed_groups = {}
    for v, row in zip(leftovers, _rows(closed)):
        closed_groups.setdefault((colors[v], row), []).append(v)
    for vs in closed_groups.values():
        classes.append(TwinClass(tuple(vs), 2 if len(vs) >= 2 else 0))
    classes.sort(key=lambda c: c.members[0])
    return classes


def _contract(mat, colors, classes):
    """Coloured quotient matrix of the twin classes, verified against its
    blow-up; the first mismatch in row-major order names the failing check."""
    reps = [c.members[0] for c in classes]
    owner = np.empty(len(mat), dtype=np.intp)
    owner[[v for c in classes for v in c.members]] = np.repeat(
        np.arange(len(classes)), [len(c.members) for c in classes])
    qmat = mat[reps][:, reps]
    looped = qmat.copy()
    np.fill_diagonal(looped, [c.kind == 2 for c in classes])
    expected = looped[owner][:, owner]
    np.fill_diagonal(expected, False)
    bad = np.flatnonzero(expected != mat)
    if bad.size:
        u, w = divmod(int(bad[0]), len(mat))
        a, b = int(owner[u]), int(owner[w])
        if a != b:
            raise InternalInconsistency(
                f"block between twin classes {a} and {b} is not constant"
            )
        if classes[a].kind == 2:
            raise InternalInconsistency(f"closed-twin class {a} is not a clique")
        raise InternalInconsistency(f"open-twin class {a} contains an edge")
    qcolors = []
    for c in classes:
        color = colors[c.members[0]]
        if c.kind:
            color = len(c.members).to_bytes(4, "big") + bytes([c.kind]) + color
        qcolors.append(color)
    return qmat, tuple(qcolors)


def _contract_to_fixpoint(mat):
    """Contract coloured twin classes until none is left.

    Returns the final quotient's adjacency matrix and colours, and for each
    quotient vertex the graph vertices it stands for, in expansion order.  A
    colour is a byte string: the base colour is empty, and a contracted class
    prepends a (size: 4 bytes, kind: 1 byte) record to its members' colour.
    """
    colors = (b"",) * len(mat)
    expansion = [(v,) for v in range(len(mat))]
    while True:
        classes = _twin_classes(mat, colors)
        if len(classes) == len(mat):
            return mat, colors, expansion
        mat, colors = _contract(mat, colors, classes)
        expansion = [tuple(v for m in c.members for v in expansion[m])
                     for c in classes]


class _QuotientSearch:
    """Individualization-refinement canonical labeling of a coloured graph."""

    def __init__(self, qmat, colors):
        self.mat = qmat
        self.adj = pack_rows(qmat)  # bitmask rows, for _refine's intersections
        self.colors = colors
        self.n = len(qmat)
        self.color_codes = [len(c).to_bytes(4, "big") + c for c in colors]
        self.first = None  # (encoding, leaf, path) of the first leaf
        self.best = None  # (encoding, leaf, path) of the least leaf so far
        self.auts = []  # verified automorphisms

    def run(self):
        by_color = {}
        for v, color in enumerate(self.colors):
            by_color[color] = by_color.get(color, 0) | 1 << v
        cells, pos = [0] * self.n, 0
        for color in sorted(by_color):
            cells[pos] = by_color[color]
            pos += cells[pos].bit_count()
        self._search(cells, ())
        return self.best[1]

    def _refine(self, cell_at, queue=None):
        """Equitable refinement driven by a queue of splitter cells.

        ``cell_at[t]`` is the bitmask of the cell starting at position t,
        else 0; it is refined in place and returned.  ``queue`` holds the
        starts of the cells to split by, first in first out; None queues
        every cell, as at the root.  A splitter splits each cell by neighbour
        count into it, the pieces taking the cell's place in increasing count
        order.  If the split cell was still waiting, every piece waits;
        otherwise every piece but the first largest one is queued (Hopcroft's
        rule: counts into that piece are counts into the old cell minus
        counts into the others).  Cells and queue are walked by position
        only, so the result does not depend on the labeling.  Bit i of every
        count is one bitmask ``planes[i]``, summed from the splitter's rows
        with ``^`` and ``&``; a cell splits by ``&`` with each plane, top down.
        """
        waiting = [False] * self.n
        open_starts = [t for t, m in enumerate(cell_at) if m & (m - 1)]  # 2+ vertices
        if queue is None:
            queue = [s for s, mask in enumerate(cell_at) if mask]
        for s in queue:
            waiting[s] = True
        queue = deque(queue)
        adj = self.adj
        while queue and open_starts:
            s = queue.popleft()
            waiting[s] = False
            planes = []
            for v in _members(cell_at[s]):
                carry = adj[v]
                for i, plane in enumerate(planes):
                    planes[i], carry = plane ^ carry, plane & carry
                    if not carry:
                        break
                else:
                    planes.append(carry)
            planes.reverse()
            still_open = []
            for t in open_starts:
                mask = cell_at[t]
                for k, plane in enumerate(planes):
                    if (hit := mask & plane) and hit != mask:
                        break
                else:  # every plane is constant on the cell
                    still_open.append(t)
                    continue
                pieces = [mask]
                for plane in planes[k:]:
                    pieces = [p for q in pieces for p in (q & ~plane, q & plane) if p]
                # a waiting cell's entry now stands for its first piece
                sizes = [piece.bit_count() for piece in pieces]
                skip = 0 if waiting[t] else sizes.index(max(sizes))
                for k, (piece, size) in enumerate(zip(pieces, sizes)):
                    cell_at[t] = piece
                    if k != skip:
                        queue.append(t)
                        waiting[t] = True
                    if size > 1:
                        still_open.append(t)
                    t += size
            open_starts = still_open
        return cell_at

    def _search(self, cells, base, queue=None):
        """Explore the subtree below the individualized sequence ``base``,
        refining ``cells`` by the splitters in ``queue`` first.

        Returns the depth to jump back to when a leaf below turned out to be
        equivalent to the first or the best leaf, else None.
        """
        cells = self._refine(cells, queue)
        targets = [(m.bit_count(), t) for t, m in enumerate(cells) if m & (m - 1)]
        if not targets:
            return self._leaf(tuple(m.bit_length() - 1 for m in cells), base)
        start = min(targets)[1]  # the first smallest non-singleton cell
        target = cells[start]
        explored = []
        roots, folded = np.arange(self.n), 0  # this node's orbits, and the auts in them
        for v in _members(target):
            if explored:
                roots, folded = self._grow_orbits(roots, folded, base)
                if roots[v] in {roots[u] for u in explored}:
                    continue
            # the cells were equitable, so only (v,) can split them
            child = cells.copy()
            child[start], child[start + 1] = 1 << v, target ^ 1 << v
            jump = self._search(child, base + (v,), [start])
            explored.append(v)
            if jump is not None and jump < len(base):
                return jump
        return None

    def _grow_orbits(self, roots, folded, base):
        """Orbit ``roots`` joined with the stored automorphisms after the first
        ``folded`` that fix ``base`` pointwise, and how many are folded in now."""
        fixing = [g for g in self.auts[folded:] if all(g[b] == b for b in base)]
        grown = _orbit_roots(np.array(fixing, dtype=np.intp), roots) if fixing else roots
        return grown, len(self.auts)

    def _leaf(self, pi, path):
        enc = self._encode(pi)
        if self.first is None:
            self.first = self.best = (enc, pi, path)
            return None
        for ref_enc, ref_pi, ref_path in (self.first, self.best):
            if enc != ref_enc:
                continue
            gamma = tuple(v for _, v in sorted(zip(ref_pi, pi)))  # ref_pi[k] -> pi[k]
            self._verify_automorphism(gamma)
            self.auts.append(gamma)
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
        rewired = np.flatnonzero((self.mat[g][:, g] != self.mat).any(axis=1))
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


_BYTE_BITS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]


def _members(mask: int) -> list:
    """The set bits of a non-empty bitmask, ascending, a byte at a time."""
    if not mask & (mask - 1):
        return [mask.bit_length() - 1]
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * i + j for i, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]


def _upper_bits(mat, order) -> bytes:
    """The strict upper triangle of ``mat`` with rows and columns taken in
    ``order``, row by row, packed big-endian and zero-padded to whole bytes."""
    p = np.asarray(order, dtype=np.intp)
    r = np.arange(len(p))
    return np.packbits(mat[p][:, p][r[:, None] < r]).tobytes()


def _certified(graph: NcGraph, order) -> tuple:
    """(order, certificate) for a vertex order of the graph: the vertex count
    (4 bytes, big-endian), then ``_upper_bits`` of the matrix in that order."""
    return order, graph.num_vertices.to_bytes(4, "big") + _upper_bits(graph.matrix, order)


@_memoised
def _canon(graph: NcGraph):
    """(canonical order, certificate) of the graph, memoised on it."""
    qmat, colors, expansion = _contract_to_fixpoint(graph.matrix)
    q_pi = _QuotientSearch(qmat, colors).run()
    return _certified(graph, tuple(v for q in q_pi for v in expansion[q]))


def canonical_order(graph: NcGraph) -> tuple:
    """A vertex order (local indices) realising the canonical adjacency matrix."""
    return _canon(graph)[0]


def certificate(graph: NcGraph) -> bytes:
    """Canonical form: vertex count plus the canonically ordered adjacency bits.
    Equal bytes if and only if the graphs are isomorphic."""
    return _canon(graph)[1]


def degree_profile(graph: NcGraph) -> tuple:
    """Cheap isomorphism invariant, for rejecting a pair before any canonical
    labeling: vertex count, edge count and the sorted degrees."""
    return graph.num_vertices, graph.num_edges, tuple(sorted(graph.degrees()))


@dataclass(frozen=True)
class Isomorphism:
    """A verified vertex bijection; construction re-checks every edge.
    ``mapping[i]`` is the target position of source vertex i, held as
    Python ints (numpy integers are accepted, bools and floats are not)."""

    source: NcGraph
    target: NcGraph
    mapping: tuple

    def __post_init__(self):
        n = self.source.num_vertices
        if self.target.num_vertices != n:
            raise NotAnIsomorphism(
                f"vertex counts differ: {n} vs {self.target.num_vertices}"
            )
        mapping = _permutation(self.mapping, n)
        if mapping is None:
            raise NotAnIsomorphism("mapping is not a bijection on vertex positions")
        object.__setattr__(self, "mapping", mapping)
        m = np.array(mapping, dtype=np.int64)
        image = self.source.matrix[:, np.argsort(m)]  # row i: m(N(i))
        bad = image != self.target.matrix[m]
        rows = np.flatnonzero(bad.any(axis=1))
        if rows.size:
            i = int(rows[0])
            raise NotAnIsomorphism(
                f"adjacency not preserved at vertex {i}",
                witness=(i, int(np.argmax(bad[i]))),
            )


def find_isomorphism(a: NcGraph, b: NcGraph):
    """An explicit verified isomorphism between the graphs, or None.

    Certificates are compared with no invariant checked first; on a match the
    two canonical orders are composed into a concrete bijection, which the
    Isomorphism constructor re-verifies edge by edge.
    """
    if certificate(a) != certificate(b):
        return None
    mapping = np.empty(a.num_vertices, dtype=np.int64)
    mapping[list(canonical_order(a))] = canonical_order(b)
    return Isomorphism(a, b, tuple(mapping.tolist()))
