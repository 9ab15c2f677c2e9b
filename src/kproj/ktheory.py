"""K-groups of projective spaces and spheres.

The ring of virtual bundles on complex projective n-space is carried on
the power basis of the reduced Hopf class (rendered γ); multiplication
truncates at the (n+1)-st power.  The Chern character sends the
generator to exp(x) - 1 and
embeds the ring into rational even cohomology; its matrix on the power
basis is lower unitriangular, which certifies both injectivity and the
independence of the basis classes.

The additive structure is not tabulated: k_groups for projective spaces
reads the groups off the certified induction of the private _certify,
one six-term window per stage, whose every exactness, Chern character
and Bott verdict carries a witness checked on sparse maps, with no Smith
form.  The older replay behind the trace subcommand, which runs the
exactness and Five Lemma checkers of the homology module on every window
and records a machine-checkable trace, lives in the private _replay;
replay_induction, InductionStep and InductionTrace are read from there
on first use.
The one genuinely topological input, the reduced K-theory of spheres,
enters as an explicit axiom table and is flagged as such in the trace;
together with two-periodicity this is the only fact taken on faith.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import _certify, _groups, _powers, _record, _replay, linalg, truncpoly
from ._record import Record


_REPLAY = ("InductionStep", "InductionTrace", "replay_induction")


def __getattr__(name: str):
    # the replay runs only for trace, so only a trace process compiles it
    if name in _REPLAY:
        return getattr(_replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ----------------------------------------------------------------------
# spaces
# ----------------------------------------------------------------------


class Space(Record):
    """A projective space (cpn), a sphere, or the one-point space."""

    _fields = ("kind", "parameter")

    def __init__(self, kind: str, parameter: int = 0):
        if kind == "cpn":
            _record.check_int(parameter, "projective space index must be nonnegative", 0)
        elif kind == "sphere":
            _record.check_int(parameter, "sphere dimension must be at least 1", 1)
        elif kind == "point":
            _record.check_int(parameter, "the point takes no parameter", 0, 1)
        else:
            raise ValueError(f"unknown space kind {kind!r}")
        super().__init__(kind, parameter)

    @classmethod
    def cpn(cls, n: int) -> "Space":
        return cls("cpn", n)

    @classmethod
    def sphere(cls, m: int) -> "Space":
        return cls("sphere", m)

    @classmethod
    def point(cls) -> "Space":
        return cls("point", 0)

    @classmethod
    def parse(cls, spec: str) -> "Space":
        if not isinstance(spec, str):
            raise ValueError("a space spec must be a str")
        spec = spec.strip().lower()
        if spec == "point":
            return cls.point()
        kind, sep, param = spec.partition(":")
        if not sep or kind not in ("cpn", "sphere"):
            raise ValueError(f"cannot parse space spec {spec!r}")
        try:
            value = int(param)
        except ValueError:
            raise ValueError(f"cannot parse space spec {spec!r}") from None
        return cls(kind, value)

    def __str__(self) -> str:
        if self.kind == "point":
            return "point"
        return f"{self.kind}:{self.parameter}"

    def label(self) -> str:
        if self.kind == "cpn":
            return f"CP^{self.parameter}"
        if self.kind == "sphere":
            return f"S^{self.parameter}"
        return "point"


# ----------------------------------------------------------------------
# the virtual-bundle ring on projective space
# ----------------------------------------------------------------------


class KClass(Record, _record.Ring):
    """Virtual bundle on projective n-space, written in powers of γ.

    coeffs[k] multiplies the k-th power of the reduced Hopf class; the
    constant coefficient is the virtual dimension (γ itself has virtual
    dimension zero), so the class is reduced exactly when coeffs[0]
    vanishes.
    """

    _fields = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[int, ...]):
        _record.check_int(n, "ambient index must be nonnegative", 0)
        coeffs = _record.exact_ints(coeffs, "coefficients must be exact integers")
        if len(coeffs) != n + 1:
            raise ValueError(f"expected {n + 1} coefficients")
        super().__init__(n, coeffs)

    @classmethod
    def zero(cls, n: int) -> "KClass":
        _record.check_int(n, "ambient index must be nonnegative", 0)
        return cls(n, (0,) * (n + 1))

    @classmethod
    def unit(cls, n: int) -> "KClass":
        """The trivial line bundle, the multiplicative identity."""
        _record.check_int(n, "ambient index must be nonnegative", 0)
        return cls(n, (1,) + (0,) * n)

    @classmethod
    def gamma(cls, n: int) -> "KClass":
        """The reduced Hopf class (Hopf bundle minus the trivial line)."""
        _record.check_int(n, "ambient index must be nonnegative", 0)
        if n == 0:
            return cls.zero(0)
        return cls(n, (0, 1) + (0,) * (n - 1))

    @classmethod
    def hopf(cls, n: int) -> "KClass":
        return cls.unit(n) + cls.gamma(n)

    def _check_ambient(self, other: "KClass"):
        if self.n != other.n:
            raise ValueError("classes live on different ambient spaces")

    def _one(self) -> "KClass":
        return KClass.unit(self.n)

    def __add__(self, other):
        if type(other) is not KClass:
            return NotImplemented
        self._check_ambient(other)
        return KClass(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if type(other) is int:
            return KClass(self.n, tuple(other * c for c in self.coeffs))
        if type(other) is not KClass:
            return NotImplemented
        return k_ring_mul(self, other)

    def render(self) -> str:
        return _powers.render_powers(self.coeffs, "γ")


def k_ring_mul(a: KClass, b: KClass) -> KClass:
    """Product in the truncated power basis: γ^(n+1) = 0.

    The factors are valid classes, so the product of their int
    coefficients is one too and is not validated again.
    """
    if type(a) is not KClass or type(b) is not KClass:
        raise ValueError("k_ring_mul multiplies two classes")
    a._check_ambient(b)
    return KClass._make(a.n, tuple(_powers.truncated_product(a.coeffs, b.coeffs)))


def chern_character_map(a: KClass) -> truncpoly.TruncPoly:
    """Chern character of a virtual class, landing in Q[x]/(x^(n+1)).

    The generator γ goes to exp(x) - 1 and the map extends linearly; it
    is a ring homomorphism because the power relation γ^(n+1) = 0 matches
    (exp(x) - 1)^(n+1) = 0 at this truncation.  The class p(γ) is first
    rewritten in powers of the Hopf class H = 1 + γ: shifting p by one,
    in Horner steps of integer subtractions, gives p(γ) = sum_j b_j H^j.
    Since the character of H^j is exp(jx), the degree-m coefficient is
    the integer sum_j b_j j^m, divided by m!; the terms b_j j^m are kept
    and multiplied by their j once per degree.
    """
    from fractions import Fraction  # here, not at the top: the replay never loads fractions

    n, b = a.n, list(a.coeffs)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            b[j] -= b[j + 1]
    weights = [j for j in range(1, n + 1) if b[j]]
    terms = [b[j] for j in weights]
    coeffs = [Fraction(a.coeffs[0])]
    fact_m = 1
    for m in range(1, n + 1):
        fact_m *= m
        terms = [t * j for t, j in zip(terms, weights)]
        coeffs.append(Fraction(sum(terms), fact_m))
    return truncpoly.TruncPoly(n, coeffs)


# λ, the x-coefficient of ch(γ) = exp(x) - 1: ch(γ^i) starts at λ^i x^i, which is all
# the certifier's Chern verdict reads of the character
CH_GAMMA_LEAD = 1


def ch_matrix(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Character matrix on the power basis, returned row-major.

    Column k holds the coefficients of the character of γ^k against the
    basis 1, x, .., x^n.  The matrix is lower unitriangular with unit
    diagonal, hence invertible over Q: the character is injective and the
    basis classes are independent.
    """
    _record.check_int(n, "n must be nonnegative", 0)
    basis = [(0,) * k + (1,) + (0,) * (n - k) for k in range(n + 1)]
    return tuple(zip(*(chern_character_map(KClass(n, e)).coeffs for e in basis)))


# ----------------------------------------------------------------------
# the sphere axiom table and the K-group tables
# ----------------------------------------------------------------------


def reduced_sphere_k(i: int) -> _groups.FgAbelianGroup:
    """Reduced K-theory of the i-sphere: Z in even dimensions, 0 in odd.

    This is the axiom table: the homotopy-theoretic computation behind it
    is far beyond desk scale, so the values are taken as input and marked
    as such wherever they are used.
    """
    _record.check_int(i, "sphere dimension must be nonnegative", 0)
    return _groups.FgAbelianGroup.free(1) if i % 2 == 0 else _groups.FgAbelianGroup.trivial()


class KGroupTable(Record):
    """K-groups of one space over a range of degrees.

    Entries are (degree, group) pairs; construction rejects any table that
    violates two-periodicity, which is the internal consistency check on
    everything derived from the sphere axiom table.
    """

    _fields = ("space", "entries")

    def __init__(self, space: Space, entries: Sequence[tuple[int, _groups.FgAbelianGroup]]):
        entries = tuple((q, group) for q, group in entries)
        lookup = dict(entries)
        _record.exact_ints(lookup, "degrees must be exact integers")
        if len(lookup) != len(entries):
            raise ValueError("duplicate degrees in table")
        for q, group in lookup.items():
            if q + 2 in lookup and lookup[q + 2] != group:
                raise ValueError(f"table breaks periodicity between {q} and {q + 2}")
        super().__init__(space, entries)

    def group(self, q: int) -> _groups.FgAbelianGroup:
        _record.check_int(q, "degree must be an integer")
        for degree, group in self.entries:
            if degree == q:
                return group
        raise ValueError(f"degree {q} is not in the table")


def k_groups(space: Space, q: int) -> _groups.FgAbelianGroup:
    """K-group of a space in any integer degree.

    Degrees are reduced modulo two.  Sphere values are assembled from the
    axiom table through the suspension relation (the based sphere with a
    disjoint basepoint suspends to a wedge of two spheres); projective
    spaces, the point CP^0 among them, are read off the certified
    induction, never looked up, and a false verdict raises FalseVerdictError.
    """
    _record.check_int(q, "degree must be an integer")
    return _k_groups_by_parity(space)[q % 2]


class FalseVerdictError(Exception):
    """A verdict is false: what it certifies is not certified.

    verdicts holds (where, name, holds) triples; the message, worded here
    alone, names the first where with a false verdict and each false one
    there.  Not a ValueError: the input was good, and the CLI gives it an
    exit status of its own.
    """

    def __init__(self, verdicts):
        self.verdicts = tuple(verdicts)
        where = next(where for where, _, holds in self.verdicts if not holds)
        names = [name for at, name, holds in self.verdicts if at == where and not holds]
        super().__init__(f"{where} fails its {' and '.join(names)} verdict")


def _k_groups_by_parity(space: Space) -> tuple[_groups.FgAbelianGroup, _groups.FgAbelianGroup]:
    """The K-groups of a space in degrees 0 and 1; at most one certification."""
    if space.kind == "sphere":
        m = space.parameter
        return tuple(reduced_sphere_k(m + parity).direct_sum(reduced_sphere_k(parity))
                     for parity in (0, 1))
    reduced = odd = 0  # K~ and K^1 of the point, CP^0, where the induction starts
    for stage in _certify.stages(space.parameter):
        if not all(holds for _, _, holds in stage.verdicts()):
            raise FalseVerdictError(stage.verdicts())
        reduced, odd = stage.ranks[1], stage.ranks[4]
    # the last stage concludes K~ and K^1 of CP^n; K^0 adds the basepoint's Z
    return _groups.FgAbelianGroup.free(reduced + 1), _groups.FgAbelianGroup.free(odd)


def k_group_table(space: Space, q_min: int, q_max: int) -> KGroupTable:
    _record.check_int(q_min, "degree must be an integer")
    _record.check_int(q_max, "q_max must be an integer no less than q_min", q_min)
    groups = _k_groups_by_parity(space)
    entries = tuple((q, groups[q % 2]) for q in range(q_min, q_max + 1))
    return KGroupTable(space, entries)


# ----------------------------------------------------------------------
# the periodicity instance
# ----------------------------------------------------------------------


def bott_matrix() -> linalg.IntegerMatrix:
    """Matrix of (a1, a2) -> a1 * 1 + a2 * hopf on the 2-sphere ring.

    Columns are the images of the two standard generators written in the
    basis (1, γ); expanding hopf = 1 + γ gives [[1, 1], [0, 1]].
    """
    unit = KClass.unit(1)
    hopf = KClass.hopf(1)
    return linalg.IntegerMatrix.from_rows(zip(unit.coeffs, hopf.coeffs))


def bott_check() -> bool:
    """Desk-scale periodicity instance: the map above is an isomorphism."""
    return linalg.is_isomorphism(bott_matrix())
