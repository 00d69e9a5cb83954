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
   no twin class is left, or until every colour is distinct, since twins
   share a colour.  Each level packs its matrix's rows into bytes once, and
   both steps read those rows: the open-twin grouping keys on them, the
   closed-twin grouping on them with each vertex's own bit set, and the
   blow-up check compares them, with that bit set on every member of a
   closed-twin class, against the row of the member's class's least
   member.  The matrix is symmetric, so that is the whole check; the
   boolean blow-up is built only after a mismatch, to name it.
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
   explored child, with a union-find over a list of orbit roots.  The
   search walks an explicit stack of open nodes, each a generator of its
   children, so no recursion limit caps its depth.
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

Every step starts from the graph's boolean adjacency matrix, the one form
an ``NcGraph`` holds.  Steps 1 and 2 pack its rows into bytes once per
contraction level; step 3 packs the final quotient's rows into integer
bitmasks once per search and splits its cells with ``&`` on them; step 4
and the leaf encodings read the boolean matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cayley import _cleared_on_error, _memoised
from .errors import InternalInconsistency, NotAnIsomorphism
from .graphs import NcGraph, _permutation, pack_rows

# Bumped whenever the certificate bytes of some graph change; stores of
# certificates key on it so that they never hand back bytes of another version.
CERT_VERSION = 3


class TwinClass(NamedTuple):
    """A maximal set of mutually twin vertices; kind 0 = singleton,
    1 = equal open neighbourhoods, 2 = equal closed neighbourhoods."""

    members: tuple
    kind: int


# _BIT[v & 7] is vertex v's bit in byte v >> 3 of a row packed by np.packbits
_BIT = np.array([0x80 >> j for j in range(8)], dtype=np.uint8)


def _keys(packed) -> list:
    """Each packed row as a hashable key: its bytes, read as one void item."""
    return packed.view(f"V{packed.shape[1]}").ravel().tolist()


def _twin_classes(packed, colors) -> list:
    """Coloured twin classes of the matrix whose rows ``np.packbits`` packed
    into ``packed``, members ascending, ordered by least member."""
    open_groups = {}
    for v, key in enumerate(zip(colors, _keys(packed))):
        open_groups.setdefault(key, []).append(v)
    classes = []
    leftovers = []
    for vs in open_groups.values():
        if len(vs) >= 2:
            classes.append(TwinClass(tuple(vs), 1))
        else:
            leftovers.append(vs[0])
    own = np.array(leftovers, dtype=np.intp)
    closed = packed[own]  # closed neighbourhoods: each row with its own bit set
    closed[np.arange(len(own)), own >> 3] |= _BIT[own & 7]
    closed_groups = {}
    for v, row in zip(leftovers, _keys(closed)):
        closed_groups.setdefault((colors[v], row), []).append(v)
    for vs in closed_groups.values():
        classes.append(TwinClass(tuple(vs), 2 if len(vs) >= 2 else 0))
    classes.sort(key=lambda c: c.members[0])
    return classes


def _contract(mat, packed, colors, classes):
    """Coloured quotient matrix of the twin classes, verified against its
    blow-up (a loop on each closed-twin class, the diagonal cleared);
    ``packed`` is ``np.packbits(mat, axis=1)`` of a symmetric ``mat``.

    The check runs on packed rows, with a loop put on every member of a
    closed-twin class: the matrix is its blow-up exactly when every such
    row equals the row of its class's least member.  Each column then
    equals that member's column too, by symmetry, so every row is constant
    on every class.  Only after a mismatch is the boolean blow-up built, so
    that the first mismatch in row-major order names the failing check.
    """
    reps = [c.members[0] for c in classes]
    owner = [0] * len(mat)  # each vertex's class
    for a, c in enumerate(classes):
        for v in c.members:
            owner[v] = a
    qmat = np.take(mat[reps], reps, axis=1)  # C-ordered, for the next level's pack
    own = np.array([v for c in classes if c.kind == 2 for v in c.members], dtype=np.intp)
    looped = packed.copy()
    looped[own, own >> 3] ^= _BIT[own & 7]
    if not np.array_equal(looped[[reps[a] for a in owner]], looped):
        expected = qmat.copy()
        np.fill_diagonal(expected, [c.kind == 2 for c in classes])
        expected = expected[owner][:, owner]
        np.fill_diagonal(expected, False)
        u, w = divmod(int(np.flatnonzero(expected != mat)[0]), len(mat))
        a, b = owner[u], owner[w]
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
    Each level packs its matrix once for the grouping and the check, and
    none is needed once every colour is distinct, since twins share one.
    """
    colors = (b"",) * len(mat)
    levels = []  # the classes of each contraction, first level first
    while len(set(colors)) < len(colors):
        packed = np.packbits(mat, axis=1)
        classes = _twin_classes(packed, colors)
        if len(classes) == len(mat):
            break
        mat, colors = _contract(mat, packed, colors, classes)
        levels.append(classes)
    expansion = [(q,) for q in range(len(mat))]
    for classes in reversed(levels):
        expansion = [tuple(v for m in vs for v in classes[m].members) for vs in expansion]
    return mat, colors, expansion


class _QuotientSearch:
    """Individualization-refinement canonical labeling of a coloured graph."""

    def __init__(self, qmat, colors):
        self.mat = qmat
        self.adj = pack_rows(qmat)  # bitmask rows, for _refine's intersections
        self.colors = colors
        self.n = len(qmat)
        self.color_codes = [len(c).to_bytes(4, "big") + c for c in colors]
        self.upper = _upper_mask(self.n)  # for _encode
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
        stack = [iter([(cells, (), None)])]  # stack[d + 1]: the open node at depth d
        while stack:
            if (node := next(stack[-1], None)) is None:
                stack.pop()
                continue
            cells, base, queue = node
            cells = self._refine(cells, queue)
            targets = [(m.bit_count(), t) for t, m in enumerate(cells) if m & (m - 1)]
            if targets:  # branch on the first smallest non-singleton cell
                stack.append(self._children(cells, base, min(targets)[1]))
            elif (jump := self._leaf(tuple(m.bit_length() - 1 for m in cells), base)) is not None:
                del stack[jump + 2:]  # resume at the node of that depth
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

    def _children(self, cells, base, start):
        """Yield (cells, base, splitter queue) of each child of the node that
        individualized ``base``, its refined ``cells`` branching on the cell
        at ``start``, skipping those in the orbit of an explored child.  The
        caller explores each child's subtree before asking for the next."""
        target = cells[start]
        explored = []
        roots, folded = list(range(self.n)), 0  # this node's orbits, and the auts in them
        for v in _members(target):
            if explored:
                roots, folded = self._grow_orbits(roots, folded, base)
                if roots[v] in {roots[u] for u in explored}:
                    continue
            # the cells were equitable, so only (v,) can split them
            child = cells.copy()
            child[start], child[start + 1] = 1 << v, target ^ 1 << v
            yield child, base + (v,), [start]
            explored.append(v)

    def _grow_orbits(self, roots, folded, base):
        """Orbit ``roots`` joined with the stored automorphisms after the first
        ``folded`` that fix ``base`` pointwise, and how many are folded in now.

        ``roots[x]`` is the least member of x's orbit; the list is updated in
        place by union-find, each root hooked under the smaller one.  Every
        pointer then leads to a smaller point, so one ascending pass points
        each point at its root again.
        """
        fixing = [g for g in self.auts[folded:] if all(g[b] == b for b in base)]
        for g in fixing:
            for x, y in enumerate(g):
                while x != (up := roots[x]):
                    x = up
                while y != (up := roots[y]):
                    y = up
                if x < y:
                    roots[y] = x
                elif y < x:
                    roots[x] = y
        if fixing:
            for x, up in enumerate(roots):
                roots[x] = roots[up]
        return roots, len(self.auts)

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
        g = np.asarray(gamma)
        image = self.mat[g][:, g]
        if tuple(map(self.colors.__getitem__, gamma)) == self.colors and np.array_equal(
                image, self.mat):
            return
        recoloured = next((v for v in range(self.n)
                           if self.colors[gamma[v]] != self.colors[v]), self.n)
        rewired = np.flatnonzero((image != self.mat).any(axis=1))
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
        return head + _upper_bits(self.mat, pi, self.upper)


_BYTE_BITS = [tuple(j for j in range(8) if b >> j & 1) for b in range(256)]


def _members(mask: int) -> list:
    """The set bits of a non-empty bitmask, ascending, a byte at a time."""
    if not mask & (mask - 1):
        return [mask.bit_length() - 1]
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * i + j for i, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]


def _upper_mask(n):
    """The n-by-n boolean mask of the strict upper triangle."""
    return ~np.tri(n, dtype=bool)


def _upper_bits(mat, order, upper) -> bytes:
    """The strict upper triangle (``upper``, its mask) of ``mat`` with rows
    and columns taken in ``order``, row by row, packed big-endian and
    zero-padded to whole bytes."""
    p = np.asarray(order, dtype=np.intp)
    return np.packbits(mat[p][:, p][upper]).tobytes()


def _certified(graph: NcGraph, order) -> tuple:
    """(order, certificate) for a vertex order of the graph: the vertex count
    (4 bytes, big-endian), then ``_upper_bits`` of the matrix in that order."""
    n = graph.num_vertices
    return order, n.to_bytes(4, "big") + _upper_bits(graph.matrix, order, _upper_mask(n))


@_memoised
def _canon(graph: NcGraph):
    """(canonical order, certificate) of the graph, memoised on it."""
    qmat, colors, expansion = _contract_to_fixpoint(graph.matrix)
    q_pi = _QuotientSearch(qmat, colors).run()
    return _certified(graph, tuple(v for q in q_pi for v in expansion[q]))


def _hold(graph: NcGraph, order=None) -> tuple:
    """Hold a canonical form on ``graph`` and return it, as ``_canon`` would:
    the (order, certificate) of ``order``, a canonical order proved on this
    graph, or with None a fresh labeling that replaces any form held."""
    graph._memo.pop(_canon.key, None)
    if order is not None:
        graph._memo[_canon.key] = _certified(graph, order)
    return _canon(graph)


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
    Python ints (numpy integers are accepted, bools and floats are not).
    A ``NotAnIsomorphism`` holds no reference to the n-by-n comparison."""

    source: NcGraph
    target: NcGraph
    mapping: tuple

    @_cleared_on_error
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
        moved = self.target.matrix[m]
        if not np.array_equal(image, moved):
            bad = image != moved
            i = int(np.flatnonzero(bad.any(axis=1))[0])
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
    mapping = [0] * a.num_vertices
    for u, v in zip(canonical_order(a), canonical_order(b)):
        mapping[u] = v
    return Isomorphism(a, b, tuple(mapping))
