"""Exceptions shared across the package.

Errors that point at a concrete counterexample carry it in ``witness``
(e.g. a triple ``(x, a, y)`` with ``(x*a)*y != x*(a*y)``, the first failure
found by Light's associativity test).
"""

from __future__ import annotations


class Error(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


# --- table validation -------------------------------------------------------

class NotClosed(Error):
    """A table entry falls outside the element range 0..n-1."""


class NoIdentity(Error):
    """No element acts as a two-sided identity."""


class NotLatin(Error):
    """Some row or column repeats a value."""


class NotAssociative(Error):
    """A triple (i, j, k) with (i*j)*k != i*(j*k) exists."""


# --- construction and derived structure -------------------------------------

class BadDescriptor(Error):
    """A construction expression is malformed or out of its family's range."""


class IndexOutOfRange(Error):
    """An element index is outside 0..n-1."""


class OrderOverflow(Error):
    """A construction would exceed the configured order cap."""


class NotASubgroup(Error):
    """An element set is not closed under the parent's multiplication."""


class AbelianInput(Error):
    """The operation is only defined for non-abelian groups."""


class NotNilpotent(Error):
    """The operation requires a nilpotent group."""


# --- graphs and audits -------------------------------------------------------

class NotAnIsomorphism(Error):
    """A claimed vertex bijection fails to preserve adjacency."""


class WrongShape(Error):
    """A group does not have the factor decomposition an audit requires."""


class RegularGraph(Error):
    """The audit requires an irregular non-commuting graph."""


class PrimeMismatch(Error):
    """The two groups' non-abelian factors live at different primes."""


# --- search bounds -----------------------------------------------------------

class Overflow(Error):
    """An exact integer would exceed the configured bit-size cap."""


class CapExceeded(Error):
    """A requested catalog instance exceeds the configured order cap."""


class CayParseError(Error):
    """A .cay file is malformed (message carries the line number)."""


class InternalInconsistency(Error):
    """A quantity two independent routes must agree on came out different.

    Raised when a structural fact that is guaranteed by theory fails on
    concrete data; it always signals an implementation bug, never bad input.
    """
