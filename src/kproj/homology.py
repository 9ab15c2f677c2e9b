"""Chain complexes of free Z-modules and the exact-sequence toolkit.

Cohomology is read off the invariant factors of the boundary matrices.
Exact sequences are carried as finitely generated abelian groups in
invariant-factor form together with integer matrices on their element
coordinates, so image-equals-kernel questions reduce to integer lattice
membership.  The module also houses the Five Lemma checker and the
splitting rule for extensions with free quotient.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import _record, linalg
from ._record import Record


class FiveLemmaHypothesisError(ValueError):
    """A Five Lemma hypothesis (commutation, exactness, outer iso) failed."""


class FiveLemmaContradictionError(RuntimeError):
    """All hypotheses verified but the middle map is not an isomorphism.

    A ladder triggering this would contradict the Five Lemma, so it points
    at a defect in the checking machinery itself.
    """


# ----------------------------------------------------------------------
# chain complexes
# ----------------------------------------------------------------------


class ChainComplex(Record):
    """Finite chain complex of free Z-modules.

    ranks[k] is the rank of the degree-k chain group; boundaries[k-1] is
    the matrix of the boundary map in degree k (shape ranks[k-1] x
    ranks[k]).  The constructor rejects shape mismatches and any pair of
    consecutive boundaries whose composite is nonzero.
    """

    _fields = ("ranks", "boundaries")

    def __init__(self, ranks: Sequence[int], boundaries: Sequence[linalg.IntegerMatrix] = ()):
        ranks, boundaries = tuple(ranks), tuple(boundaries)
        if not ranks:
            raise ValueError("a complex needs at least degree 0")
        for r in ranks:
            _record.check_int(r, "ranks must be nonnegative integers", 0)
        if len(boundaries) != len(ranks) - 1:
            raise ValueError("expected one boundary matrix per degree above 0")
        for k in range(1, len(ranks)):
            b = boundaries[k - 1]
            if b.rows != ranks[k - 1] or b.cols != ranks[k]:
                raise ValueError(f"boundary in degree {k} has the wrong shape")
        for k in range(2, len(ranks)):
            if not (boundaries[k - 2] @ boundaries[k - 1]).is_zero():
                raise ValueError(f"boundary composite in degree {k} is nonzero")
        super().__init__(ranks, boundaries)

    @classmethod
    def with_zero_boundaries(cls, ranks) -> "ChainComplex":
        ranks = tuple(ranks)
        bnds = tuple(linalg.IntegerMatrix.zero(ranks[k - 1], ranks[k])
                     for k in range(1, len(ranks)))
        return cls(ranks, bnds)

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, k: int) -> linalg.IntegerMatrix:
        """Boundary map out of degree k; zero maps off the ends."""
        _record.check_int(k, "degree out of range", None, self.top + 2)
        if k <= 0:
            return linalg.IntegerMatrix.zero(0, self.ranks[0])
        if k == self.top + 1:
            return linalg.IntegerMatrix.zero(self.ranks[self.top], 0)
        return self.boundaries[k - 1]


def cohomology(c: ChainComplex, k: int) -> linalg.FgAbelianGroup:
    """Degree-k cohomology, read off the invariant factors of two boundaries.

    The coboundaries are the transposed boundaries, so C^k modulo the
    coboundaries is the cokernel of the degree-k boundary, whose rows are
    the relations.  The cocycles are a direct summand of C^k, so H^k keeps
    all of that torsion and loses only the rank of the degree-(k+1)
    boundary from the free part.
    """
    _record.check_int(k, "degree out of range", 0)
    if k > c.top:
        return linalg.FgAbelianGroup.trivial()
    quotient = linalg.cokernel(c.boundary(k))
    free = quotient.free_rank - linalg.smith_normal_form(c.boundary(k + 1)).rank
    return linalg.FgAbelianGroup(free, quotient.torsion)


def cpn_complex(n: int) -> ChainComplex:
    """Cellular chain complex of complex projective n-space.

    One cell in each even dimension up to 2n and none in odd dimensions;
    every boundary map has a trivial domain or codomain, so all of them
    are zero.  This is encoded explicitly rather than tabulated so that
    the homology really is computed.
    """
    _record.check_int(n, "n must be a nonnegative integer", 0)
    ranks = tuple(1 if k % 2 == 0 else 0 for k in range(2 * n + 1))
    return ChainComplex.with_zero_boundaries(ranks)


def sphere_complex(m: int) -> ChainComplex:
    """Minimal cell structure of the m-sphere: one 0-cell and one m-cell."""
    _record.check_int(m, "sphere dimension must be an integer at least 1", 1)
    ranks = (1,) + (0,) * (m - 1) + (1,)
    return ChainComplex.with_zero_boundaries(ranks)


# ----------------------------------------------------------------------
# exact sequences of finitely generated abelian groups
# ----------------------------------------------------------------------


def _check_well_defined(label: str, f: linalg.IntegerMatrix,
                        src: linalg.FgAbelianGroup, dst: linalg.FgAbelianGroup):
    """Reject f unless it has src -> dst shape and carries relations into relations."""
    if f.rows != dst.element_length() or f.cols != src.element_length():
        raise ValueError(f"{label} has the wrong shape")
    if src.torsion and not linalg._spans(dst._relations, f @ src._relations):
        raise ValueError(f"{label} does not preserve relations")


def _preimage_generators(block: linalg.IntegerMatrix, width: int) -> linalg.IntegerMatrix:
    """Generators of the lattice {x : f @ x lies in the column span of R}.

    block is [f | R] and width is f.cols.  (x, y) lies in the kernel of
    the block exactly when f x = R (-y), so the x-parts of a kernel basis
    generate the preimage lattice.
    """
    kb = linalg.kernel_basis(block)
    if kb.rows == width:  # no relation columns: the kernel basis is the preimage
        return kb
    return linalg.IntegerMatrix._make(width, kb.cols, kb.entries[:width * kb.cols])


class GroupSequence(Record):
    """A finite sequence of groups with maps on their element coordinates.

    maps[i] sends groups[i] to groups[i+1].  Construction verifies the
    shapes and that each map carries relations into relations, i.e. is a
    well-defined homomorphism of the groups.
    """

    _fields = ("groups", "maps")

    def __init__(self, groups: Sequence[linalg.FgAbelianGroup],
                 maps: Sequence[linalg.IntegerMatrix]):
        groups, maps = tuple(groups), tuple(maps)
        if len(maps) != len(groups) - 1:
            raise ValueError("expected one map between consecutive groups")
        for i, f in enumerate(maps):
            _check_well_defined(f"map {i}", f, groups[i], groups[i + 1])
        super().__init__(groups, maps)

    def __len__(self) -> int:
        return len(self.groups)


def is_exact_at(s: GroupSequence, i: int) -> bool:
    """Exactness im(maps[i-1]) == ker(maps[i]) at an inner position.

    Both inclusions are decided by integer lattice membership: the image
    lattice is spanned by the incoming map's columns together with the
    relations; the kernel lattice is the preimage of the outgoing map's
    target relations.
    """
    _record.check_int(i, "position out of range", 1, len(s) - 1)
    incoming, outgoing = s.maps[i - 1], s.maps[i]
    relations = s.groups[i]._relations
    image = incoming.hstack(relations)
    block = outgoing.hstack(s.groups[i + 1]._relations)
    kernel = _preimage_generators(block, outgoing.cols).hstack(relations)
    return linalg._spans(kernel, image) and linalg._spans(image, kernel)


def induced_map_is_isomorphism(f: linalg.IntegerMatrix,
                               src: linalg.FgAbelianGroup,
                               dst: linalg.FgAbelianGroup) -> bool:
    """Isomorphism test for the homomorphism that f induces from src to dst."""
    _check_well_defined("map", f, src, dst)
    block = f.hstack(dst._relations)
    # the preimage reads the block's transforms first: one elimination serves both tests
    pre = _preimage_generators(block, f.cols)
    # surjective: f and R span dst's coordinates, so the block [f | R] (its invariant
    # factors those of its transpose) has full row rank and unit factors
    form = linalg.smith_normal_form(block)
    if form.rank != f.rows or any(x != 1 for x in form.d):
        return False
    # injective: the preimage of dst's relations is contained in src's relations
    return not pre.cols or linalg._spans(src._relations, pre)


# ----------------------------------------------------------------------
# the Five Lemma checker
# ----------------------------------------------------------------------


class Ladder(Record):
    """Two five-term sequences joined by vertical maps.

    Shapes and well-definedness of the verticals are enforced here;
    commutation of the squares is a hypothesis verified (with diagnostics)
    by five_lemma_check.
    """

    _fields = ("top", "bottom", "verticals")

    def __init__(self, top: GroupSequence, bottom: GroupSequence,
                 verticals: Sequence[linalg.IntegerMatrix]):
        verticals = tuple(verticals)
        if len(top) != 5 or len(bottom) != 5 or len(verticals) != 5:
            raise ValueError("a ladder needs five columns")
        for i, f in enumerate(verticals):
            _check_well_defined(f"vertical {i}", f, top.groups[i], bottom.groups[i])
        super().__init__(top, bottom, verticals)


def five_lemma_check(ladder: Ladder) -> bool:
    """Verify the Five Lemma hypotheses AND its conclusion on a ladder.

    Returns True when every square commutes, both rows are exact at the
    three inner positions, the four outer verticals are isomorphisms, and
    the middle vertical is an isomorphism too.  A failing hypothesis
    raises FiveLemmaHypothesisError naming the defect.  If the hypotheses
    all hold but the middle map fails, FiveLemmaContradictionError is
    raised: such a ladder cannot exist, so the checker itself must be at
    fault.
    """
    for i in range(4):
        diff = (ladder.verticals[i + 1] @ ladder.top.maps[i]
                - ladder.bottom.maps[i] @ ladder.verticals[i])
        if not linalg._spans(ladder.bottom.groups[i + 1]._relations, diff):
            raise FiveLemmaHypothesisError(f"square {i} does not commute")
    for name, row in (("top", ladder.top), ("bottom", ladder.bottom)):
        for i in (1, 2, 3):
            if not is_exact_at(row, i):
                raise FiveLemmaHypothesisError(f"{name} row is not exact at position {i}")
    for i in (0, 1, 3, 4):
        if not induced_map_is_isomorphism(
            ladder.verticals[i], ladder.top.groups[i], ladder.bottom.groups[i]
        ):
            raise FiveLemmaHypothesisError(f"vertical {i} is not an isomorphism")
    if not induced_map_is_isomorphism(
        ladder.verticals[2], ladder.top.groups[2], ladder.bottom.groups[2]
    ):
        raise FiveLemmaContradictionError(
            "hypotheses verified but the middle vertical is not an isomorphism"
        )
    return True


def split_free_extension(sub: linalg.FgAbelianGroup,
                         quot: linalg.FgAbelianGroup) -> linalg.FgAbelianGroup:
    """Middle group of an extension of quot by sub when quot is free.

    A free quotient admits no nontrivial extensions, so the middle term is
    forced to be the direct sum.  Quotients with torsion are rejected: the
    extension need not split and deciding it is out of scope here.
    """
    if quot.torsion:
        raise ValueError("quotient must be free for the extension to split")
    return sub.direct_sum(quot)
