"""Exact repunit arithmetic and a bounded search for cross-base repunit equalities.

A repunit to base b of length k is 1 + b + ... + b^(k-1).  The search finds
all pairs of bases whose repunits coincide inside a box of caps, and checks
the at-most-one-exponent-pair-per-base-pair uniqueness property on everything
it sees.  All arithmetic is exact; a bit-size guard turns runaway inputs into
an error instead of an unbounded computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InternalInconsistency, Overflow

# Values are capped at this bit size; ``_check_bits`` is conservative (it
# bounds the result's bit length from above before computing it).
DEFAULT_MAX_BITS = 1 << 20


def repunit(b: int, k: int) -> int:
    """1 + b + ... + b^(k-1), exactly; ``Overflow`` past ``DEFAULT_MAX_BITS``."""
    if b < 2:
        raise ValueError(f"repunit base must be >= 2, got {b}")
    if k < 1:
        raise ValueError(f"repunit length must be >= 1, got {k}")
    _check_bits(b, k)
    return (b ** k - 1) // (b - 1)


def _check_bits(b: int, k: int) -> None:
    """``Overflow`` unless repunit(b, k), and so every shorter repunit to
    base b, is bounded within ``DEFAULT_MAX_BITS``."""
    if (k - 1) * b.bit_length() > DEFAULT_MAX_BITS:
        raise Overflow(f"repunit({b}, {k}) would exceed the {DEFAULT_MAX_BITS}-bit cap")


def _lengths(b: int, max_exp: int):
    """(k, repunit(b, k)) for k = 2 .. max_exp, by R(k + 1) = b R(k) + 1."""
    _check_bits(b, max_exp)
    r = 1 + b
    for k in range(2, max_exp + 1):
        yield k, r
        r = r * b + 1


def _collisions(bases, max_exp: int) -> dict:
    """(x, y) -> [(m, n)]: every repunit(x, m) == repunit(y, n) with x < y
    among ``bases`` (distinct) and 2 <= n < m <= max_exp, indexed in one
    pass, one evaluation per (base, length) cell.  ``InternalInconsistency``
    if m <= n, or if a base pair meets twice (the at-most-one property)."""
    by_value = {}
    for b in bases:
        for k, r in _lengths(b, max_exp):
            by_value.setdefault(r, []).append((b, k))
    pair_hits = {}
    for value in sorted(by_value):
        for (x, m), (y, n) in combinations(sorted(by_value[value]), 2):
            if m <= n:
                raise InternalInconsistency(
                    f"equal repunits {value} with bases {x} < {y} but "
                    f"lengths {m} <= {n}"
                )
            pair_hits.setdefault((x, y), []).append((m, n))
    for (x, y), hits in sorted(pair_hits.items()):
        if len(hits) > 1:
            raise InternalInconsistency(
                f"base pair ({x}, {y}) admits multiple exponent pairs {hits} "
                f"within the box; the at-most-one property failed"
            )
    return pair_hits


@dataclass(frozen=True)
class RepunitSolution:
    """An equality repunit(x, m) == repunit(y, n) with y > x > 1 and m > n > 1.

    Construction re-verifies the equality by direct evaluation.
    """

    x: int
    y: int
    m: int
    n: int

    def __post_init__(self):
        if not 1 < self.x < self.y:
            raise ValueError(f"need y > x > 1, got x={self.x}, y={self.y}")
        if not 1 < self.n < self.m:
            raise ValueError(f"need m > n > 1, got m={self.m}, n={self.n}")
        if repunit(self.x, self.m) != repunit(self.y, self.n):
            raise ValueError(
                f"repunit({self.x}, {self.m}) != repunit({self.y}, {self.n})"
            )

    @property
    def value(self) -> int:
        return repunit(self.x, self.m)

    def astuple(self) -> tuple:
        return (self.x, self.y, self.m, self.n)


def goormaghtigh_search(max_base: int, max_exp: int) -> list:
    """All repunit equalities repunit(x, m) == repunit(y, n) inside the box
    1 < x < y <= max_base, n < m <= max_exp, with n >= 3.

    The two-digit family repunit(y, 2) = y + 1 pairs every base x with
    y = repunit(x, m) - 1 and would flood the output, so coincidences with
    n = 2 are excluded from the returned list -- but they still participate
    in the uniqueness check: if any base pair (x, y) admitted two distinct
    exponent pairs (m, n) with n >= 2 inside the box, that would violate the
    documented at-most-one property and raises InternalInconsistency.
    """
    if max_base < 2 or max_exp < 2:
        raise ValueError("caps must be at least 2")
    solutions = [RepunitSolution(x, y, m, n)
                 for (x, y), hits in _collisions(range(2, max_base + 1), max_exp).items()
                 for m, n in hits if n >= 3]
    return sorted(solutions, key=RepunitSolution.astuple)
