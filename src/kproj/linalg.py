"""Exact integer linear algebra.

Smith normal form with unimodular transforms, integer kernels and
cokernels, and linear-system solving over Z.  Finitely generated abelian
groups in invariant-factor normal form live in the private _groups and
are bound here as FgAbelianGroup.  All arithmetic is exact: the module
runs on Python's arbitrary-precision integers and nothing here (or
anywhere downstream) touches floating point.

The Smith transforms are built only for callers that read them.  A
signed partial permutation is decomposed in closed form here, and a
transform whose pivots are in place is the marked identity, which @ skips;
every other matrix goes to the general elimination in _elimination, where
invariant factors, ranks and cokernels come from one fraction-free pass,
which gives the rank and a multiple D of a determinantal divisor, and
then from an elimination modulo D, whose entries stay below D however
large the minors grow.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import chain, compress
from operator import add, mul, neg, sub

from . import _elimination, _groups, _record
from ._record import Record

FgAbelianGroup = _groups.FgAbelianGroup


# Identity matrices kept, one per size.  A stage of the induction replay
# asks for the same three or four sizes many times (trace 200 makes 3590
# calls on 201 sizes, and 4 entries miss only the first call on each); an
# unbounded cache would keep every identity up to 200 x 200, 2.7M slots.
IDENTITY_CACHE_SIZE = 8


def _check_sizes(*sizes) -> None:
    for n in sizes:
        _record.check_int(n, "matrix dimensions must be nonnegative integers", 0)


class IntegerMatrix(Record):
    """Immutable integer matrix; entries stored row-major."""

    _fields = ("rows", "cols", "entries")
    _is_identity = False  # set by identity(); a product returns its other factor

    def __init__(self, rows: int, cols: int, entries: Sequence[int] = ()):
        _check_sizes(rows, cols)
        entries = _record.exact_ints(entries, "matrix entries must be exact integers")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        super().__init__(rows, cols, entries)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows = [tuple(r) for r in rows]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if rows and cols is not None and cols != width:
            raise ValueError("cols argument does not match row width")
        return cls(len(rows), width if cols is None else cols, tuple(chain.from_iterable(rows)))

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        _check_sizes(n)  # before the cache, which would hash an unhashable n
        return _identity(n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        _check_sizes(rows, cols)
        return cls._make(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: int, cols: int) -> "IntegerMatrix":
        _check_sizes(rows, cols)
        values = list(values)
        if len(values) > min(rows, cols):
            raise ValueError("too many diagonal values for the requested shape")
        entries = [0] * (rows * cols)
        entries[:len(values) * (cols + 1):cols + 1] = values
        return cls(rows, cols, tuple(entries))

    @cached_property
    def _hash(self) -> int:  # smith_normal_form's cache key: hash the entries once
        return Record.__hash__(self)

    def __hash__(self):
        return self._hash

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (type(i) is int and type(j) is int  # a bool or a float is no index
                and 0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        a, c = self.entries, self.cols
        return [list(a[i * c:(i + 1) * c]) for i in range(self.rows)]

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix._make(self.rows, self.cols, tuple(map(neg, self.entries)))

    def _check_same_shape(self, other: "IntegerMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes do not match")

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if type(other) is not IntegerMatrix:
            return NotImplemented
        self._check_same_shape(other)
        return IntegerMatrix._make(self.rows, self.cols,
                                   tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if type(other) is not IntegerMatrix:
            return NotImplemented
        self._check_same_shape(other)
        return IntegerMatrix._make(self.rows, self.cols,
                                   tuple(map(sub, self.entries, other.entries)))

    def __mul__(self, scalar: int) -> "IntegerMatrix":
        if type(scalar) is not int:
            return NotImplemented
        return IntegerMatrix._make(self.rows, self.cols, tuple(map(scalar.__mul__, self.entries)))

    __rmul__ = __mul__

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if type(other) is not IntegerMatrix:
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        if self._is_identity:  # matrices are immutable, so a side may be shared
            return other
        if other._is_identity:
            return self
        n, m, k = self.rows, other.cols, self.cols
        if not n * m * k:  # k == 0 would give range() below a zero step
            return IntegerMatrix._make(n, m, (0,) * (n * m))
        a, b = self.entries, other.entries
        columns = [b[j::m] for j in range(m)]
        entries = tuple(sum(map(mul, a[i:i + k], column))
                        for i in range(0, n * k, k) for column in columns)
        return IntegerMatrix._make(n, m, entries)

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts do not match")
        if not other.cols:  # matrices are immutable, so a side may be shared
            return self
        a, b, p, q = self.entries, other.entries, self.cols, other.cols
        flat = []
        for i in range(self.rows):
            flat += a[i * p:(i + 1) * p]
            flat += b[i * q:(i + 1) * q]
        return IntegerMatrix._make(self.rows, p + q, tuple(flat))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def det(self) -> int:
        """Fraction-free (Bareiss) determinant; exact for any size."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        minor, gcds = _elimination._bareiss(self)
        return minor if len(gcds) > self.rows else 0

    # ------------------------------------------------------------------
    # text format: first line "rows cols", then rows of integers
    # ------------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "IntegerMatrix":
        if not isinstance(text, str):
            raise ValueError("matrix text must be a str")
        tokens = text.split()
        if len(tokens) < 2:
            raise ValueError("matrix text must start with 'rows cols'")
        rows, cols = int(tokens[0]), int(tokens[1])
        body = tokens[2:]
        if len(body) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(body)}")
        return cls(rows, cols, tuple(map(int, body)))


@lru_cache(maxsize=IDENTITY_CACHE_SIZE)
def _identity(n: int) -> IntegerMatrix:
    entries = [0] * (n * n)
    entries[::n + 1] = [1] * n
    eye = IntegerMatrix._make(n, n, tuple(entries))
    eye.__dict__["_is_identity"] = True
    return eye


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------


class SmithForm(Record):
    """Unimodular decomposition u @ a @ v == diagonal(d), padded to a's shape.

    d lists the positive invariant factors, each dividing the next; the
    remainder of the padded diagonal is zero.  u and v are square with
    determinant +-1.

    Every part is computed on first read and then kept.  Reading d or
    rank first builds no transforms: d of a zero matrix is empty, and any
    other d comes from _elimination._invariant_factors, which works
    modulo a multiple of a determinantal divisor, and that is all that
    cokernel needs.  The first
    read of u or v runs _eliminate, which builds the transforms, in closed
    form or by _elimination._eliminate; it keeps d, u and v, so a caller
    that reads a transform first pays for one elimination only.  d is
    unique, so it does not depend on which routine found it.
    """

    _fields = ("a",)

    @cached_property
    def d(self) -> tuple[int, ...]:
        if self.a.is_zero():  # as every boundary of cpn_complex and sphere_complex is
            return ()
        return _elimination._invariant_factors(self.a)

    @cached_property
    def _transforms(self) -> tuple[IntegerMatrix, IntegerMatrix]:
        d, u, v = _eliminate(self.a)
        self.__dict__.setdefault("d", d)
        return u, v

    @property
    def u(self) -> IntegerMatrix:
        return self._transforms[0]

    @property
    def v(self) -> IntegerMatrix:
        return self._transforms[1]

    @property
    def rank(self) -> int:
        return len(self.d)

    @cached_property
    def kernel(self) -> IntegerMatrix:
        """The last cols - rank columns of v, a basis of the kernel of a."""
        v = self.v.entries  # before rank, so that one elimination fills both
        n, r = self.a.cols, self.rank
        if r:
            v = tuple(chain.from_iterable(v[i + r:i + n] for i in range(0, n * n, n)))
        return IntegerMatrix._make(n, n - r, v)

    def diagonal_matrix(self) -> IntegerMatrix:
        return IntegerMatrix.diagonal(self.d, self.a.rows, self.a.cols)


def _signed_permutation(src: list[int], signs: Sequence[int]) -> IntegerMatrix:
    """The matrix with rows signs[i] e_{src[i]}: the marked identity if it is one."""
    n = len(src)
    if src == list(range(n)) and signs.count(1) == n:
        return IntegerMatrix.identity(n)
    entries = [0] * (n * n)
    for p, s in zip(map(add, range(0, n * n, n), src), signs):
        entries[p] = s
    return IntegerMatrix._make(n, n, tuple(entries))


def _permutation_form(a: IntegerMatrix):
    """(d, u, v) in closed form if a has at most one nonzero, +-1, per row and column.

    With its r nonzeros a[i_k][j_k] = s_k in row order, row k of u is
    e_{i_k} and column k of v is s_k e_{j_k}, then the zero rows and the
    unused columns in order; so u or v is the identity if its pivots are
    in place.  Any other a gives None.
    """
    if a._is_identity:  # marked by identity(): nothing to scan
        return (1,) * a.rows, a, a
    m, n, entries = a.rows, a.cols, a.entries
    values = tuple(compress(entries, entries))
    p = -1  # the next nonzero is the next entry equal to its value
    spots = [p := entries.index(x, p + 1) for x in values]
    rows, cols = tuple(map(n.__rfloordiv__, spots)), tuple(map(n.__rmod__, spots))
    r = len(values)
    if not (len(set(rows)) == len(set(cols)) == r and set(values) <= {1, -1}):
        return None
    u = _signed_permutation(list(rows) + sorted(set(range(m)).difference(rows)), (1,) * m)
    order = cols + tuple(sorted(set(range(n)).difference(cols)))  # column k of v is +-e_order[k]
    inverse = sorted(range(n), key=order.__getitem__)
    signs = values + (1,) * (n - r)
    v = _signed_permutation(inverse, tuple(map(signs.__getitem__, inverse)))
    return (1,) * r, u, v


def _eliminate(a: IntegerMatrix):
    """Smith elimination of a with its transforms, (d, u, v): in closed form if a allows it."""
    return _permutation_form(a) or _elimination._eliminate(a)


# Distinct matrices whose decompositions are kept.  The induction replay
# revisits a few small matrices thousands of times: trace 64 makes 5166
# calls on 256 distinct matrices, and 16 entries miss only the first call
# on each (8 entries miss 442).  An unbounded cache would hold every
# transform and kernel basis of a long run for the life of the process.
SMITH_CACHE_SIZE = 16


@lru_cache(maxsize=SMITH_CACHE_SIZE)
def smith_normal_form(a: IntegerMatrix) -> SmithForm:
    """The Smith decomposition of a, computed as its parts are read.

    See SmithForm for which parts cost what.  Results are memoized on the
    matrix value (an LRU cache of the SMITH_CACHE_SIZE most recent distinct
    matrices), so equal inputs share one immutable SmithForm;
    smith_normal_form.cache_info() counts hits.
    """
    return SmithForm(a)


def cokernel(a: IntegerMatrix) -> FgAbelianGroup:
    """Quotient of Z^cols by the subgroup generated by the rows of a.

    Each row of a is read as a relation among the cols standard
    generators; the result is the presented group in invariant-factor
    form.
    """
    form = smith_normal_form(a)
    free = a.cols - form.rank
    torsion = tuple(x for x in form.d if x > 1)
    return FgAbelianGroup(free, torsion)


def kernel_basis(a: IntegerMatrix) -> IntegerMatrix:
    """Basis of the integer kernel {x in Z^cols : a @ x = 0}, as columns.

    The columns come from the unimodular column transform of the Smith
    form, so they are primitive and extend to a basis of Z^cols.
    """
    return smith_normal_form(a).kernel


def is_isomorphism(a: IntegerMatrix) -> bool:
    """True iff a is square with determinant +-1."""
    if a.rows != a.cols:
        return False
    return abs(a.det()) == 1


def _reduce(a: IntegerMatrix, b: IntegerMatrix):
    """(form, c): the Smith form u @ a @ v = D of a and c = (u @ b).entries, or None.

    None means that no x has a @ x = b: D y = c is solvable when c is zero
    from row rank on and each row i < rank is divisible by d[i].
    """
    if a.rows != b.rows:
        raise ValueError("row counts do not match")
    form = smith_normal_form(a)
    u = form.u  # before d, so that one elimination fills both
    d, k = form.d, b.cols
    c = (u @ b).entries
    if any(c[len(d) * k:]):
        return None
    for i in range(d.count(1), len(d)):  # the 1s lead the divisibility chain
        if any(map(d[i].__rmod__, c[i * k:(i + 1) * k])):
            return None
    return form, c


def _spans(a: IntegerMatrix, b: IntegerMatrix) -> bool:
    """Whether every column of b lies in the lattice spanned by the columns of a."""
    return _reduce(a, b) is not None


def solve_integer(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix | None:
    """One integer solution x of a @ x = b (columnwise), or None.

    Uses the Smith decomposition: with u a v = D the system becomes
    D y = u b, solved coordinate by coordinate; free coordinates are set
    to zero.
    """
    reduced = _reduce(a, b)
    if reduced is None:
        return None
    form, c = reduced
    d, n, k = form.d, a.cols, b.cols
    ones, rank = d.count(1), len(d)
    quotients = tuple(x // d[i] for i in range(ones, rank) for x in c[i * k:(i + 1) * k])
    # where every factor is 1 and a has full rank, y is c itself, uncopied
    y = c[:ones * k] + quotients + (0,) * ((n - rank) * k)
    return form.v @ IntegerMatrix._make(n, k, y)
