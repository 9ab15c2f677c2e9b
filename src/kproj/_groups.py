"""Finitely generated abelian groups in invariant-factor normal form.

FgAbelianGroup is the value type that every layer passes around, and
linalg binds it under its public name.  It lives apart from the matrices
so that a caller which only builds groups, the group completion of a
Cayley table or the K-groups of a sphere, runs no linear algebra: linalg
is reached only by the relations matrix that the exact-sequence checks
read and by direct_sum of groups with torsion.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from . import _record, linalg
from ._record import Record


class FgAbelianGroup(Record):
    """Finitely generated abelian group in invariant-factor normal form.

    free_rank copies of Z plus cyclic factors Z/torsion[i] where each
    torsion entry is at least 2 and divides the next.  Structural
    equality therefore decides isomorphism.
    """

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Sequence[int] = ()):
        _record.check_int(free_rank, "group invariants must be exact integers")
        torsion = _record.exact_ints(torsion, "group invariants must be exact integers")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for t in torsion:
            if t < 2:
                raise ValueError("torsion coefficients must be at least 2")
        for s, t in zip(torsion, torsion[1:]):
            if t % s:
                raise ValueError("torsion coefficients must form a divisibility chain")
        super().__init__(free_rank, torsion)

    @cached_property
    def _relations(self) -> linalg.IntegerMatrix:
        """The relations as columns: t times the unit vector of each torsion coordinate t."""
        m, free = len(self.torsion), self.free_rank
        entries = [0] * ((free + m) * m)
        entries[free * m::m + 1] = self.torsion
        return linalg.IntegerMatrix._make(free + m, m, tuple(entries))

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, order: int) -> "FgAbelianGroup":
        _record.check_int(order, "group invariants must be exact integers")
        if order == 0:
            return cls(1, ())
        if order == 1:
            return cls(0, ())
        return cls(0, (order,))

    def direct_sum(self, other: "FgAbelianGroup") -> "FgAbelianGroup":
        """Direct sum, renormalized into a single invariant-factor chain."""
        free = self.free_rank + other.free_rank
        torsion = self.torsion + other.torsion
        if not torsion:
            return FgAbelianGroup(free, ())
        k = len(torsion)
        normalized = linalg.cokernel(linalg.IntegerMatrix.diagonal(torsion, k, k))
        return FgAbelianGroup(free, normalized.torsion)

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.render()

    def payload(self) -> dict:
        """{free_rank, torsion, text}, the group as the CLI's documents write it."""
        return {"free_rank": self.free_rank, "torsion": self.torsion, "text": self.render()}

    # -- element arithmetic ---------------------------------------------
    # Elements are integer tuples: free coordinates first, then one
    # residue per torsion factor.

    def element_length(self) -> int:
        return self.free_rank + len(self.torsion)

    def normalize_element(self, element: Sequence[int]) -> tuple[int, ...]:
        element = _record.exact_ints(element, "element coordinates must be exact integers")
        if len(element) != self.element_length():
            raise ValueError("element has the wrong number of coordinates")
        free = element[:self.free_rank]
        tors = tuple(c % t for c, t in zip(element[self.free_rank:], self.torsion))
        return free + tors

    def zero_element(self) -> tuple[int, ...]:
        return (0,) * self.element_length()

    def add_elements(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        a = self.normalize_element(a)
        b = self.normalize_element(b)
        return self.normalize_element(tuple(x + y for x, y in zip(a, b)))

    def scale_element(self, a: Sequence[int], c: int) -> tuple[int, ...]:
        a = self.normalize_element(a)
        return self.normalize_element(tuple(c * x for x in a))
