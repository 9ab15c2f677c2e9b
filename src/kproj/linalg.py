"""Exact integer linear algebra.

Smith normal form with unimodular transforms, integer kernels and
cokernels, linear-system solving over Z, and finitely generated abelian
groups in invariant-factor normal form.  All arithmetic is exact: the
module runs on Python's arbitrary-precision integers and nothing here
(or anywhere downstream) touches floating point.

The Smith transforms are built only for callers that read them.
Invariant factors, ranks and cokernels come from one fraction-free pass,
which gives the rank and a multiple D of a determinantal divisor, and
then from an elimination modulo D, whose entries stay below D however
large the minors grow.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import chain, compress, repeat
from math import gcd, prod
from operator import add, itemgetter, mul, neg, sub

from ._record import Record


# Identity matrices kept, one per size.  A stage of the induction replay
# asks for the same three or four sizes many times (trace 200 makes 3590
# calls on 201 sizes, and 4 entries miss only the first call on each); an
# unbounded cache would keep every identity up to 200 x 200, 2.7M slots.
IDENTITY_CACHE_SIZE = 8


class IntegerMatrix(Record):
    """Immutable integer matrix; entries stored row-major."""

    _fields = ("rows", "cols", "entries")
    _is_identity = False  # set by identity(); a product returns its other factor
    _gather = None  # (source row, sign) per row, set on signed permutations in closed form

    def __init__(self, rows: int, cols: int, entries: Sequence[int] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        if not set(map(type, entries)) <= {int}:
            raise ValueError("matrix entries must be exact integers")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _make(cls, rows: int, cols: int, entries: tuple[int, ...]) -> "IntegerMatrix":
        """Internal constructor that skips validation.

        For library results only: the caller guarantees that entries is a
        tuple of exactly rows * cols values of type int.
        """
        obj = object.__new__(cls)
        fields = obj.__dict__
        fields["rows"], fields["cols"], fields["entries"] = rows, cols, entries
        return obj

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        rows = [tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols argument does not match row width")
        else:
            width = 0 if cols is None else cols
        return cls(len(rows), width, tuple(chain.from_iterable(rows)))

    @classmethod
    @lru_cache(maxsize=IDENTITY_CACHE_SIZE, typed=True)  # identity(True) is not identity(1)
    def identity(cls, n: int) -> "IntegerMatrix":
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = [0] * (n * n)
        entries[::n + 1] = [1] * n
        eye = cls._make(n, n, tuple(entries))
        eye.__dict__["_is_identity"] = True
        return eye

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return cls._make(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence[int], rows: int, cols: int) -> "IntegerMatrix":
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
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        a, c = self.entries, self.cols
        return [list(a[i * c:(i + 1) * c]) for i in range(self.rows)]

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def transpose(self) -> "IntegerMatrix":
        a, cols = self.entries, self.cols
        if self.rows > 1 and cols > 1:  # else the row-major order is unchanged
            flat = []
            for j in range(cols):
                flat += a[j::cols]
            a = tuple(flat)
        return IntegerMatrix._make(cols, self.rows, a)

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix._make(self.rows, self.cols, tuple(map(neg, self.entries)))

    def _check_same_shape(self, other: "IntegerMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes do not match")

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_same_shape(other)
        return IntegerMatrix._make(self.rows, self.cols,
                                   tuple(map(add, self.entries, other.entries)))

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        self._check_same_shape(other)
        return IntegerMatrix._make(self.rows, self.cols,
                                   tuple(map(sub, self.entries, other.entries)))

    def __mul__(self, scalar: int) -> "IntegerMatrix":
        if type(scalar) is not int:
            return NotImplemented
        return IntegerMatrix._make(self.rows, self.cols, tuple(map(scalar.__mul__, self.entries)))

    __rmul__ = __mul__

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        if self._is_identity:  # matrices are immutable, so a side may be shared
            return other
        if other._is_identity:
            return self
        n, m, k = self.rows, other.cols, self.cols
        if not n * m * k:
            return IntegerMatrix.zero(n, m)
        a, b = self.entries, other.entries
        if self._gather is not None:  # row i of the product is sign times row source of b
            out = []
            for j, s in self._gather:
                row = b[j * m:(j + 1) * m]
                out += row if s == 1 else map(s.__mul__, row)
            return IntegerMatrix._make(n, m, tuple(out))
        columns = [b[j::m] for j in range(m)]
        return IntegerMatrix._make(n, m, tuple(sum(map(mul, a[i:i + k], column))
                                               for i in range(0, n * k, k)
                                               for column in columns))

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValueError("row counts do not match")
        if not other.cols:  # matrices are immutable, so a side may be shared
            return self
        if not self.cols:
            return other
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
        minor, gcds = _bareiss(self)
        return minor if len(gcds) > self.rows else 0

    # ------------------------------------------------------------------
    # text format: first line "rows cols", then rows of integers
    # ------------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "IntegerMatrix":
        tokens = text.split()
        if len(tokens) < 2:
            raise ValueError("matrix text must start with 'rows cols'")
        rows, cols = int(tokens[0]), int(tokens[1])
        body = tokens[2:]
        if len(body) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(body)}")
        return cls(rows, cols, tuple(map(int, body)))


# ----------------------------------------------------------------------
# Smith normal form
# ----------------------------------------------------------------------


class SmithForm(Record):
    """Unimodular decomposition u @ a @ v == diagonal(d), padded to a's shape.

    d lists the positive invariant factors, each dividing the next; the
    remainder of the padded diagonal is zero.  u and v are square with
    determinant +-1.

    Every part is computed on first read and then kept.  Reading d or
    rank first builds no transforms: d comes from _invariant_factors,
    which works modulo a multiple of a determinantal divisor, and that is
    all that cokernel needs.  The first read of u or v runs _eliminate,
    which builds the transforms; it keeps d, u and v, so a caller that
    reads a transform first pays for one elimination only.  d is unique,
    so it does not depend on which routine found it.
    """

    _fields = ("a",)

    def __init__(self, a: IntegerMatrix):
        object.__setattr__(self, "a", a)

    @cached_property
    def d(self) -> tuple[int, ...]:
        return _invariant_factors(self.a)

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


def _bareiss(a: IntegerMatrix) -> tuple[int, list[int]]:
    """Fraction-free (Bareiss) elimination of a: (minor, gcds).

    Each pivot is the first nonzero entry, below the rows already used,
    of the leftmost column that has one.  After k pivots every working
    entry below and to the right of them is a (k+1)-minor of a
    (Sylvester's identity), so gcds[k + 1], the gcd of the next pivot's
    row and column, is a multiple of the determinantal divisor
    Delta_{k+1}, the gcd of all (k+1)-minors.  gcds runs from gcds[0] = 1
    to gcds[rank]; minor is the last pivot times the sign of the row
    swaps, which is det(a) when a is a nonsingular square.
    """
    rows = a.row_lists()
    m = a.rows
    prev = sign = 1
    gcds = [1]
    k = 0
    for c in range(a.cols):
        if k == m:
            break
        p = next((i for i in range(k, m) if rows[i][c]), None)
        if p is None:
            continue
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot = rows[k][c]
        tail = rows[k][c + 1:]
        gcds.append(gcd(*tail, *(row[c] for row in rows[k:])))
        for row in rows[k + 1:]:
            e = row[c]
            if e:
                row[c + 1:] = [(x * pivot - e * y) // prev for x, y in zip(row[c + 1:], tail)]
            elif pivot != prev:
                row[c + 1:] = [x * pivot // prev for x in row[c + 1:]]
        prev = pivot
        k += 1
    return sign * prev, gcds


def _invariant_factors(a: IntegerMatrix) -> tuple[int, ...]:
    """The invariant factors of a, without transforms and without coefficient growth.

    One Bareiss pass gives the rank r and, in gcds[k], a multiple of the
    determinantal divisor Delta_k = d_1 ... d_k for each k <= r.  For a
    nonsingular square a, d_1, .., d_{r-1} come from _diagonal_mod modulo
    gcds[r - 1] and d_r = |det a| / (d_1 ... d_{r-1}); the r-minors there
    are all det a, so gcds[r] would be no smaller than |det a|.  For any
    other a, d_1, .., d_r come from _diagonal_mod modulo gcds[r].  A
    modulus of 1 makes every factor it covers 1.
    """
    minor, gcds = _bareiss(a)
    rank = len(gcds) - 1
    square = a.rows == a.cols == rank > 0
    k = rank - square
    d = [1] * k if gcds[k] == 1 else _diagonal_mod(a, gcds[k], k)
    if square:
        d.append(abs(minor) // prod(d))
    return tuple(d)


def _gcd_step(a: int, b: int) -> tuple[int, int, int, int]:
    """(x, y, b/h, a/h) with x a + y b = h = gcd(a, b), for a that does not divide b.

    The map (s, t) -> (x s + y t, (b/h) s - (a/h) t) has determinant -1
    and sends (a, b) to (h, 0).
    """
    h = gcd(a, b)
    y = pow(b // h, -1, a // h)
    return (h - y * b) // a, y, b // h, a // h


def _diagonal_mod(a: IntegerMatrix, modulus: int, k: int) -> list[int]:
    """The first k invariant factors of a, given a multiple of d_1 ... d_k as modulus.

    With L the row lattice of a, Z^cols / (L + modulus Z^cols) is the sum
    of the Z/gcd(d_i, modulus), which is Z/d_i for i <= k, and of copies
    of Z/modulus.  So a Smith elimination over Z/modulus finds d_1, ..,
    d_k first, while its entries stay in [0, modulus).  Each step pivots
    on an entry e of least gcd(e, modulus), scaled by a unit to
    g = gcd(e, modulus).  It clears the pivot's column by row operations:
    an exact multiple of the pivot row where g divides the entry, else a
    _gcd_step, which makes g a proper divisor of itself.  While the pivot
    row has an entry that g does not divide, it goes on with the
    transpose, which has the same invariant factors; and, as in
    _eliminate, a row with such an entry is first added to the pivot
    row.  Then column operations would clear the pivot row alone, so the
    pivot row and column are dropped.

    The modulus is c times the product of the factors not yet found, and
    stays so: after a factor g > 1, every entry and every factor left is
    a multiple of g, so the entries are divided by g and the modulus by
    g once for the factor found and once for each factor left, and the
    later factors are multiplied back.  So the modulus stays near the
    size of the factors left, however large they are.
    """
    w = [[x % modulus for x in row] for row in a.row_lists()]
    d = []
    scale = 1
    while len(d) < k:
        g = modulus
        for i, row in enumerate(w):
            gs = list(map(gcd, row, repeat(modulus)))
            least = min(gs)
            if least < g:
                g, pi, pj = least, i, gs.index(least)
                if g == 1:
                    break
        if g == modulus:
            # the block is zero: every factor left is the modulus
            return d + [scale * modulus] * (k - len(d))
        w[0], w[pi] = w[pi], w[0]
        for row in w:
            row[0], row[pj] = row[pj], row[0]
        if w[0][0] != g:
            # pivot / g is a unit modulo modulus / g; lift its inverse to a unit
            step = modulus // g
            u = pow(w[0][0] // g, -1, step)
            while gcd(u, modulus) > 1:
                u += step
            w[0] = [u * x % modulus for x in w[0]]
        while True:
            prow = w[0]
            for i in range(1, len(w)):
                row = w[i]
                e = row[0]
                if not e % g:
                    if e:
                        q = e // g
                        w[i] = [(x - q * y) % modulus for x, y in zip(row, prow)]
                    continue
                x, y, p, q = _gcd_step(g, e)
                prow, w[i] = ([(x * s + y * t) % modulus for s, t in zip(prow, row)],
                              [(p * s - q * t) % modulus for s, t in zip(prow, row)])
                g = prow[0]
            w[0] = prow
            if any(e % g for e in prow):
                w = [list(column) for column in zip(*w)]
                continue
            if g == 1:
                break
            violator = next((row for row in w[1:] if any(e % g for e in row)), None)
            if violator is None:
                break
            w[0] = [(s + t) % modulus for s, t in zip(prow, violator)]
        d.append(scale * g)
        if g == 1:
            w = [row[1:] for row in w[1:]]
            continue
        modulus //= g ** (k - len(d) + 1)
        scale *= g
        w = [[x // g % modulus for x in row[1:]] for row in w[1:]]
    return d


def _min_abs_entry(d: list[list[int]], t: int, m: int, n: int):
    """(|e|, i, j) for the least nonzero |e| in the block d[t:][t:], or None.

    Ties go to the lowest row, then the lowest column, so a unit in the
    corner d[t][t] is the answer.
    """
    return min(((abs(e), i, j) for i in range(t, m) for j in range(t, n) if (e := d[i][j])),
               default=None)


def _signed_permutation(src: list[int], signs: Sequence[int]) -> IntegerMatrix:
    """The matrix with rows signs[i] e_{src[i]}: the marked identity, or one marked for gathers."""
    n = len(src)
    if src == list(range(n)) and signs.count(1) == n:
        return IntegerMatrix.identity(n)
    entries = [0] * (n * n)
    for p, s in zip(map(add, range(0, n * n, n), src), signs):
        entries[p] = s
    matrix = IntegerMatrix._make(n, n, tuple(entries))
    matrix.__dict__["_gather"] = tuple(zip(src, signs))
    return matrix


def _permutation_form(a: IntegerMatrix):
    """(d, u, v) in closed form if a has at most one nonzero, +-1, per row and column.

    With its r nonzeros a[i_k][j_k] = s_k in row order, row k of u is
    e_{i_k} and column k of v is s_k e_{j_k}, then the zero rows and the
    unused columns in order; so u or v is the identity if its pivots are
    in place.  Any other a gives None.
    """
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


def _unit_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def _eliminate(a: IntegerMatrix):
    """Smith elimination of a with its transforms: (d, u, v).

    Pivoting picks the nonzero entry of least absolute value (ties broken
    by lowest row then column index), which keeps the output deterministic.
    Each entry is reduced by the nearest-integer multiple of the pivot, so
    its remainder is at most half the pivot; that keeps the entries of the
    transforms small, and d, being unique, does not depend on it.
    Diagonal entries are normalized positive, the sign being absorbed into
    the column transform.

    After step t, row and column t of the working matrix are zero off the
    diagonal, so the row and column operations of later steps touch only
    its lower-right block.  v is built transposed, so that a column
    operation on it is a row operation on a list.  A signed partial
    permutation, as every matrix of the induction replay is, takes the
    closed form of _permutation_form instead.
    """
    form = _permutation_form(a)
    if form is not None:
        return form
    m, n = a.rows, a.cols
    d = a.row_lists()
    u, vt = _unit_rows(m), _unit_rows(n)

    def move_to_pivot(t, i, j):
        if i != t:
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for row in d[t:]:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]

    t = 0
    limit = min(m, n)
    while t < limit:
        found = _min_abs_entry(d, t, m, n)
        if found is None:
            break
        move_to_pivot(t, found[1], found[2])
        while True:
            prow = d[t]
            pivot = prow[t]
            half = (pivot if pivot > 0 else -pivot) >> 1
            dirty = False
            # clear column t below the pivot by row operations
            for i in compress(range(t + 1, m), map(itemgetter(t), d[t + 1:])):
                row = d[i]
                q, r = divmod(row[t], pivot)
                if (r if r > 0 else -r) > half:
                    q += 1
                    r -= pivot
                if q:
                    row[t:] = map(sub, row[t:], map(q.__mul__, prow[t:]))
                    u[i] = list(map(sub, u[i], map(q.__mul__, u[t])))
                if r:
                    dirty = True
            if not dirty:
                # column t is clear, so a column operation changes row t only
                for j in compress(range(t + 1, n), prow[t + 1:]):
                    q, r = divmod(prow[j], pivot)
                    if (r if r > 0 else -r) > half:
                        q += 1
                        r -= pivot
                    if q:
                        prow[j] = r
                        vt[j] = list(map(sub, vt[j], map(q.__mul__, vt[t])))
                    if r:
                        dirty = True
            if dirty:
                _, pi, pj = _min_abs_entry(d, t, m, n)
                move_to_pivot(t, pi, pj)
                continue
            # pivot must divide everything that remains, or the invariant
            # factor chain breaks later; a unit pivot divides everything
            if pivot == 1 or pivot == -1:
                break
            violator = next((i for i in range(t + 1, m)
                             if any(map(pivot.__rmod__, d[i][t + 1:]))), None)
            if violator is None:
                break
            prow[t:] = map(add, prow[t:], d[violator][t:])
            u[t] = list(map(add, u[t], u[violator]))
        if d[t][t] < 0:
            d[t][t] = -d[t][t]
            vt[t] = list(map(neg, vt[t]))
        t += 1

    diag = tuple(d[k][k] for k in range(limit) if d[k][k])
    return (diag, IntegerMatrix._make(m, m, tuple(chain.from_iterable(u))),
            IntegerMatrix._make(n, n, tuple(chain.from_iterable(zip(*vt)))))


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


def cokernel(a: IntegerMatrix) -> "FgAbelianGroup":
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


def solve_integer(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix | None:
    """One integer solution x of a @ x = b (columnwise), or None.

    Uses the Smith decomposition: with u a v = D the system becomes
    D y = u b, solved coordinate by coordinate; free coordinates are set
    to zero.
    """
    if a.rows != b.rows:
        raise ValueError("row counts do not match")
    form = smith_normal_form(a)
    c = (form.u @ b).entries
    n, k, rank = a.cols, b.cols, form.rank
    if any(c[rank * k:]):
        return None
    ones = form.d.count(1)  # the 1s lead the divisibility chain
    quotients = []
    for i in range(ones, rank):
        di, row = form.d[i], c[i * k:(i + 1) * k]
        if any(map(di.__rmod__, row)):
            return None
        quotients += map(di.__rfloordiv__, row)
    # where every factor is 1 and a has full rank, y is c itself, uncopied
    y = c[:ones * k] + tuple(quotients) + (0,) * ((n - rank) * k)
    return form.v @ IntegerMatrix._make(n, k, y)


# ----------------------------------------------------------------------
# finitely generated abelian groups
# ----------------------------------------------------------------------


class FgAbelianGroup(Record):
    """Finitely generated abelian group in invariant-factor normal form.

    free_rank copies of Z plus cyclic factors Z/torsion[i] where each
    torsion entry is at least 2 and divides the next.  Structural
    equality therefore decides isomorphism.
    """

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Sequence[int] = ()):
        torsion = tuple(torsion)
        if type(free_rank) is not int or any(type(t) is not int for t in torsion):
            raise ValueError("group invariants must be exact integers")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for t in torsion:
            if t < 2:
                raise ValueError("torsion coefficients must be at least 2")
        for s, t in zip(torsion, torsion[1:]):
            if t % s:
                raise ValueError("torsion coefficients must form a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, order: int) -> "FgAbelianGroup":
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
        normalized = cokernel(IntegerMatrix.diagonal(torsion, k, k))
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

    # -- element arithmetic ---------------------------------------------
    # Elements are integer tuples: free coordinates first, then one
    # residue per torsion factor.

    def element_length(self) -> int:
        return self.free_rank + len(self.torsion)

    def normalize_element(self, element: Sequence[int]) -> tuple[int, ...]:
        element = tuple(element)
        if any(type(c) is not int for c in element):
            raise ValueError("element coordinates must be exact integers")
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

    def negate_element(self, a: Sequence[int]) -> tuple[int, ...]:
        a = self.normalize_element(a)
        return self.normalize_element(tuple(-x for x in a))

    def scale_element(self, a: Sequence[int], c: int) -> tuple[int, ...]:
        a = self.normalize_element(a)
        return self.normalize_element(tuple(c * x for x in a))
