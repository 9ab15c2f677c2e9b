"""The certified induction: the K-groups of CP^n, each verdict with its witness.

Stage k is the pair (CP^(k+1), CP^k), whose cofibre is the sphere
S^(2k+2).  Bott periodicity folds the long exact sequence of the pair
into one cyclic six-term window, in the direction of K-theory:

    K~(S^(2k+2)) -f-> K~(CP^(k+1)) -g-> K~(CP^k) -0-> K^1(S^(2k+2))
        -f1-> K^1(CP^(k+1)) -g1-> K^1(CP^k) -0-> back to K~(S^(2k+2))

On γ-power coordinates (K~(CP^m) has the basis γ, .., γ^m) the sphere
generator goes to γ^(k+1), restriction to CP^k truncates, and both
connecting maps are zero, so each half is a split sequence
0 -> Z^s -> Z^(p+s) -> Z^p -> 0 whose middle is the stage's conclusion.
The sphere ranks s come from the axiom table, the quotient ranks p from
the previous stage's conclusion, and stage 0 starts from the point.

Each half is certified by one splitting: a retraction r of its
generator f and a section σ of its restriction g, with r f = I, g σ = I
and f r + σ g = I.  Exactness at a position is its incoming and outgoing
maps composing to zero together with one of these identities: r f = I at
the sphere (f is injective), f r + σ g = I at the middle (any v with
g v = 0 is f (r v), so ker g = im f) and g σ = I at the quotient (g is
onto), each identity on the rank the window gives that position (the
certifying-algorithm pattern of McConnell, Mehlhorn, Näher and
Schweitzer, 2011).  Each stage adds two verdicts on the paper's other
ingredients: the Chern character carries the sphere generator γ^(k+1)
onto the integral generator of H^(2k+2)(CP^(k+1)), read as
sum_j (-1)^(k+1-j) C(k+1, j) j^(k+1) = (k+1)!, the top coefficient of
(e^x - 1)^(k+1) scaled by (k+1)!; and multiplication by γ carries γ^k to
γ^(k+1), computed through k_ring_mul.

Every map is a SparseMap, whose products cost the nonzeros they touch,
and a failed identity, a wrong shape included, makes its verdict false;
nothing here raises for one.  A SparseMap and a Stage compare by value
but are unhashable: maps are built column by column, in dicts, and are
never used as keys.  No Smith form and no IntegerMatrix is
built, so a certifying process runs neither linalg nor homology.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import comb, factorial
from operator import mul

from . import _groups, _record, ktheory
from ._record import Record


class SparseMap(Record):
    """An integer map Z^cols -> Z^rows kept as its nonzero columns.

    columns maps a column index to {row index: nonzero value}; a column
    with no nonzero entry is left out, so equal maps have equal fields.
    """

    _fields = ("rows", "cols", "columns")
    __hash__ = None

    @classmethod
    def identity(cls, n: int) -> "SparseMap":
        return cls(n, n, {j: {j: 1} for j in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMap":
        return cls(rows, cols, {})

    def payload(self) -> dict:
        """{rows, cols, entries}, each nonzero as [row, col, value], column by column."""
        entries = [[i, j, v] for j, column in sorted(self.columns.items())
                   for i, v in sorted(column.items())]
        return {"rows": self.rows, "cols": self.cols, "entries": entries}


def _compose(a: SparseMap | None, b: SparseMap | None) -> SparseMap | None:
    """a after b, or None when either is None or the shapes do not compose.

    Each nonzero b[t, j] is paired with the nonzeros of column t of a
    only, so the product costs the nonzeros it touches.  A column of b
    with one entry, as in most maps here, scales a column of a; when the
    entry is 1 the product shares that column, which no map mutates.
    """
    if a is None or b is None or a.cols != b.rows:
        return None
    left, out = a.columns, {}
    if not left:
        return SparseMap(a.rows, b.cols, out)
    for j, column in b.columns.items():
        if len(column) == 1:
            (t, v), = column.items()
            total = left.get(t)
            if total is None:
                continue
            if v != 1:
                total = {i: w * v for i, w in total.items()}
        else:
            total = {}
            for t, v in column.items():
                for i, w in left.get(t, {}).items():
                    total[i] = total.get(i, 0) + w * v
            total = {i: x for i, x in total.items() if x}
            if not total:
                continue
        out[j] = total
    return SparseMap(a.rows, b.cols, out)


def _add(a: SparseMap | None, b: SparseMap | None) -> SparseMap | None:
    """a + b for maps with disjoint nonzero columns, merged at C speed; else None.

    Every sum here, f r + σ g, has disjoint columns (the retraction's and
    the restriction's), so a sum whose columns overlap is not one the
    certificate forms: its None fails the identity it was meant to form,
    as do either argument None and shapes that differ.
    """
    if (a is None or b is None or (a.rows, a.cols) != (b.rows, b.cols)
            or not a.columns.keys().isdisjoint(b.columns)):
        return None
    return SparseMap(a.rows, a.cols, a.columns | b.columns)


def _is_zero(a: SparseMap | None) -> bool:
    return a is not None and not a.columns


# ----------------------------------------------------------------------
# one split half 0 -> Z^s -> Z^(p+s) -> Z^p -> 0 on γ-power coordinates
# ----------------------------------------------------------------------


def _generator(p: int, s: int) -> SparseMap:
    """The sphere's generators, sent to the top powers γ^(p+1), .., γ^(p+s)."""
    return SparseMap(p + s, s, {i: {p + i: 1} for i in range(s)})


def _restriction(p: int, s: int) -> SparseMap:
    """Restriction to the smaller space: keep γ, .., γ^p and drop the rest."""
    return SparseMap(p, p + s, {j: {j: 1} for j in range(p)})


def _section(p: int, s: int) -> SparseMap:
    """A right inverse of the restriction: γ^j on the smaller space to γ^j."""
    return SparseMap(p + s, p, {j: {j: 1} for j in range(p)})


def _retraction(p: int, s: int) -> SparseMap:
    """A left inverse of the generator: the coefficients of γ^(p+1), .., γ^(p+s)."""
    return SparseMap(s, p + s, {p + i: {i: 1} for i in range(s)})


def _window(spheres: tuple[int, int], previous: tuple[int, int]):
    """The six groups' ranks and maps of one stage, and the splitting of each half.

    spheres holds the ranks of K~ and K^1 of the cofibre sphere, and
    previous those of K~ and K^1 of the smaller space.  Map i goes from
    position i to position i + 1 (mod 6), and half h, positions 3h to
    3h + 2, is split by (retraction, section) = splittings[h].
    """
    ranks, maps, splittings = [], [], []
    for s, p in zip(spheres, previous):
        ranks += (s, p + s, p)
        maps += (_generator(p, s), _restriction(p, s), None)
        splittings.append((_retraction(p, s), _section(p, s)))
    for i in (2, 5):  # the connecting maps are zero
        maps[i] = SparseMap.zero(ranks[(i + 1) % 6], ranks[i])
    return tuple(ranks), tuple(maps), tuple(splittings)


def _exactness(ranks, maps, splittings) -> tuple[bool, ...]:
    """Exactness at each of the six positions, each identity computed once.

    Position j holds when map j after map j - 1 is zero and its half's
    identity is the identity on ranks[j]: r f at the sphere, f r + σ g at
    the middle and g σ at the quotient.
    """
    verdicts = []
    for i, (retraction, section) in zip((0, 3), splittings):
        generator, restriction = maps[i], maps[i + 1]
        identities = (_compose(retraction, generator),
                      _add(_compose(generator, retraction), _compose(section, restriction)),
                      _compose(restriction, section))
        verdicts += (_is_zero(_compose(maps[j], maps[j - 1]))
                     and identity == SparseMap.identity(ranks[j])
                     for j, identity in enumerate(identities, i))
    return tuple(verdicts)


def _top_character(m: int) -> int:
    """m! times the x^m coefficient of ch(γ^m) = (e^x - 1)^m, on ints.

    The sum over j of (-1)^(m-j) C(m, j) j^m, its terms of each sign
    summed at C speed.
    """
    def terms(start):
        js = range(start, 0, -2)
        return sum(map(mul, map(comb, repeat(m), js), map(pow, js, repeat(m))))
    return terms(m) - terms(m - 1)


def _gamma_product(k: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (degree, coefficient) terms of γ · γ^k on CP^(k+1)."""
    power = ktheory.KClass(k + 1, (0,) * k + (1, 0))
    coeffs = ktheory.k_ring_mul(ktheory.KClass.gamma(k + 1), power).coeffs
    return tuple((d, coeffs[d]) for d in compress(range(k + 2), coeffs))


class Stage(Record):
    """One certified stage: the window, its splittings and its verdicts."""

    _fields = ("k", "ranks", "maps", "splittings", "top_character", "product", "exactness",
               "chern", "bott")
    __hash__ = None

    def failures(self) -> tuple[str, ...]:
        """The names of the verdicts that are false."""
        return tuple(name for name, holds in (("exactness", all(self.exactness)),
                                              ("chern", self.chern), ("bott", self.bott))
                     if not holds)

    def render(self) -> str:
        """The six groups and each verdict: "Z -> Z^2 -> Z -> 0 -> 0 -> 0 [exactness ok; ..]"."""
        failed = self.failures()
        return (" -> ".join(_groups.FgAbelianGroup.free(r).render() for r in self.ranks)
                + " [" + "; ".join(f"{name} {'FAILED' if name in failed else 'ok'}"
                                   for name in ("exactness", "chern", "bott")) + "]")

    def payload(self) -> dict:
        """The stage as trace --certificates writes it: every map and splitting, each verdict."""
        k = self.k
        return {
            "stage": k,
            "window": [f"reduced K(S^{2 * k + 2})", f"reduced K(CP^{k + 1})",
                       f"reduced K(CP^{k})", f"K^1(S^{2 * k + 2})", f"K^1(CP^{k + 1})",
                       f"K^1(CP^{k})"],
            "ranks": self.ranks,
            "maps": [m.payload() for m in self.maps],
            "splittings": [{"retraction": retraction.payload(), "section": section.payload()}
                           for retraction, section in self.splittings],
            "top_character": str(self.top_character),
            "product": self.product,
            "verdicts": {"exactness": self.exactness, "chern": self.chern, "bott": self.bott},
            "text": self.render(),
        }


def _stage(k: int, spheres: tuple[int, int], previous: tuple[int, int]) -> Stage:
    ranks, maps, splittings = _window(spheres, previous)
    top, product = _top_character(k + 1), _gamma_product(k)
    return Stage(k, ranks, maps, splittings, top, product, _exactness(ranks, maps, splittings),
                 top == factorial(k + 1), product == ((k + 1, 1),))


def stages(n: int):
    """Yield the certified stages 0, .., n - 1 of CP^n, one at a time, from the point.

    Stage k concludes the ranks of K~ and K^1 of CP^(k+1), the middles of
    its two halves, and stage k + 1 reads them back as its smaller space.
    A caller that keeps only the verdicts holds one stage's maps at a time.
    """
    _record.check_int(n, "the induction needs n >= 0", 0)
    previous = (0, 0)  # K~ and K^1 of the point
    for k in range(n):
        spheres = (ktheory.reduced_sphere_k(2 * k + 2).free_rank,
                   ktheory.reduced_sphere_k(2 * k + 3).free_rank)
        stage = _stage(k, spheres, previous)
        yield stage
        previous = stage.ranks[1], stage.ranks[4]
