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
ingredients, both read off its sphere class c_k, the generator's image
(column 0 of map 0, row i standing for γ^(i+1)).  Chern: the character
carries c_k onto ±x^(k+1), the integral generator of H^(2k+2)(CP^(k+1)).
ch is multiplicative and ch(γ) = λx + (higher terms), so ch(γ^i) starts
at λ^i x^i, and ch(c_k) = ±x^(k+1) exactly when c_k is a γ^(k+1) alone
with a λ^(k+1) = ±1.  Bott: multiplication by γ, the Bott class of CP^1,
carries c_(k-1) onto c_k in K(CP^(k+1)), computed through k_ring_mul, so
consecutive windows are linked as their ranks are; c_(-1) is the unit of
K(point).

Every map is a SparseMap, whose products cost the nonzeros they touch,
and a failed identity, a wrong shape included, makes its verdict false;
nothing here raises for one.  No map here has two nonzeros in a column,
so a product over such a column fails closed, as a sum over overlapping
columns does.  A SparseMap and a Stage compare by value but are
unhashable: maps are built column by column, in dicts, and are never
used as keys.  No Smith form and no IntegerMatrix is built, so a
certifying process runs neither linalg nor homology.
"""

from __future__ import annotations

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
    """a after b, for a b with at most one nonzero per column; else None.

    On γ-power coordinates no map a certificate holds has more, so such a
    product is not one the certificate forms: its None fails the identity
    it was meant to form, as do either argument None and shapes that do
    not compose.  Column j is column t of a scaled by b[t, j], so the
    product costs the nonzeros it touches, and shares that column, which
    no map mutates, when b[t, j] is 1; a zero a gives zero without a read.
    """
    if a is None or b is None or a.cols != b.rows:
        return None
    left, out = a.columns, {}
    if not left:
        return SparseMap(a.rows, b.cols, out)
    for j, column in b.columns.items():
        if len(column) != 1:
            return None
        (t, v), = column.items()
        total = left.get(t)
        if total is not None:
            out[j] = total if v == 1 else {i: w * v for i, w in total.items()}
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


def _coordinates(column: dict, n: int) -> tuple[int, ...] | None:
    """(c_0, .., c_n) of the class on CP^n with c_(i+1) = column[i]; None for a row past n - 1."""
    coeffs = [0] * (n + 1)
    for i, v in column.items():
        if not 0 <= i < n:
            return None
        coeffs[i + 1] = v
    return tuple(coeffs)


class Stage(Record):
    """Stage k of the certified induction for CP^n: the window, its splittings and its verdicts."""

    _fields = ("n", "k", "ranks", "maps", "splittings", "exactness", "chern", "bott")
    __hash__ = None

    def verdicts(self) -> tuple[tuple[str, str, bool], ...]:
        """(where, name, holds) of exactness, at all six positions, chern and bott."""
        where = f"stage {self.k} of the certified induction for CP^{self.n}"
        return ((where, "exactness", all(self.exactness)), (where, "chern", self.chern),
                (where, "bott", self.bott))

    def render(self) -> str:
        """The six groups and each verdict: "Z -> Z^2 -> Z -> 0 -> 0 -> 0 [exactness ok; ..]"."""
        return (" -> ".join(_groups.FgAbelianGroup.free(r).render() for r in self.ranks)
                + " [" + "; ".join(f"{name} {'ok' if holds else 'FAILED'}"
                                   for _, name, holds in self.verdicts()) + "]")

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
            "verdicts": {"exactness": self.exactness, "chern": self.chern, "bott": self.bott},
            "text": self.render(),
        }


def stages(n: int):
    """Yield the certified stages 0, .., n - 1 of CP^n, one at a time, from the point.

    Stage k concludes the ranks of K~ and K^1 of CP^(k+1), the middles of
    its two halves, and stage k + 1 reads them back as its smaller space.
    A caller that keeps only the verdicts holds one stage's maps at a time.
    """
    _record.check_int(n, "the induction needs n >= 0", 0)
    KClass, lam = ktheory.KClass, ktheory.CH_GAMMA_LEAD
    # the point: K~ and K^1, the coordinates of its sphere class c_(-1) (the unit), λ^0
    previous, below, lead = (0, 0), (1,), 1
    for k in range(n):
        spheres = (ktheory.reduced_sphere_k(2 * k + 2).free_rank,
                   ktheory.reduced_sphere_k(2 * k + 3).free_rank)
        ranks, maps, splittings = _window(spheres, previous)
        column, lead = maps[0].columns.get(0, {}), lead * lam
        sphere = _coordinates(column, k + 1)
        # γ · c_(k-1) = c_k, c_(k-1) lifted by its coordinates: any lift gives the same
        # product, since two lifts differ by a multiple of γ^(k+1), which γ kills
        bott = (below is not None and sphere is not None and ktheory.k_ring_mul(
            KClass.gamma(k + 1), KClass(k + 1, below + (0,))) == KClass(k + 1, sphere))
        yield Stage(n, k, ranks, maps, splittings, _exactness(ranks, maps, splittings),
                    column.keys() == {k} and column[k] * lead in (1, -1), bott)
        previous, below = (ranks[1], ranks[4]), sphere
