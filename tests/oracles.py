"""Independent brute-force oracles used to pin expected values.

Nothing in here calls the library's Smith machinery: determinants come
from cofactor expansion, invariant factors from the gcd-of-minors
characterization, diagonalization from plain repeated-subtraction row and
column reduction, finite quotients from literal enumeration of
canonical representatives, and associativity from every triple of a
table.  The polynomial oracles (the exponential series, elementary
symmetric polynomials and power sums) are built from kproj's plain
truncated and multivariate polynomial arithmetic, which each of them
imports itself, so that the module loads without kproj; the
elementary symmetric values of integer roots from plain ints.  The
Chern character of a class in powers of γ is also read off Stirling
numbers of the second kind, a route the library no longer takes.  A
certificate document of `kproj trace N --certificates` is re-checked
with plain int arithmetic, from nothing but its JSON.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd


def det_cofactor(rows) -> int:
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, value in enumerate(rows[0]):
        if value:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = value * det_cofactor(minor)
            total += term if j % 2 == 0 else -term
    return total


def minors_gcd_invariant_factors(rows) -> list[int]:
    """Invariant factors via gcds of k x k minors: d_k = D_k / D_{k-1}.

    The running gcd short-circuits at 1, which is exact (a gcd never
    grows) and keeps the enumeration cheap on random input.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    previous = 1
    factors = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, abs(det_cofactor(sub)))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def naive_diagonalize(rows_in) -> list[int]:
    """Diagonal entries by exhaustive elementary row/column reduction.

    No pivot strategy and no transform bookkeeping: just Euclid with row
    and column subtractions until the corner clears, then recurse on the
    rest.  Returns the nonzero diagonal magnitudes (no divisibility
    normalization).
    """
    rows = [list(map(int, r)) for r in rows_in]
    m = len(rows)
    n = len(rows[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        found = next(((i, j) for i in range(t, m) for j in range(t, n)
                      if rows[i][j]), None)
        if found is None:
            break
        i0, j0 = found
        rows[t], rows[i0] = rows[i0], rows[t]
        for r in rows:
            r[t], r[j0] = r[j0], r[t]
        while True:
            for i in range(t + 1, m):
                while rows[i][t]:
                    q = rows[i][t] // rows[t][t]
                    for j in range(n):
                        rows[i][j] -= q * rows[t][j]
                    if rows[i][t]:
                        rows[t], rows[i] = rows[i], rows[t]
            for j in range(t + 1, n):
                while rows[t][j]:
                    q = rows[t][j] // rows[t][t]
                    for i in range(m):
                        rows[i][j] -= q * rows[i][t]
                    if rows[t][j]:
                        for i in range(m):
                            rows[i][t], rows[i][j] = rows[i][j], rows[i][t]
            column_clear = all(rows[i][t] == 0 for i in range(t + 1, m))
            row_clear = all(rows[t][j] == 0 for j in range(t + 1, n))
            if column_clear and row_clear:
                break
        diag.append(abs(rows[t][t]))
        t += 1
    return [d for d in diag if d]


# ----------------------------------------------------------------------
# matrix arithmetic on nested lists
# ----------------------------------------------------------------------
# A matrix is a list of rows.  Where an operand may have no rows, the
# column count that the rows cannot carry is passed in.


def list_product(a, b, cols) -> list[list[int]]:
    """a @ b, with cols the column count of b."""
    return [[sum(row[t] * b[t][j] for t in range(len(b))) for j in range(cols)] for row in a]


def list_transpose(a, cols) -> list[list[int]]:
    """The transpose of a, with cols its column count."""
    return [[row[j] for row in a] for j in range(cols)]


def list_hstack(a, b) -> list[list[int]]:
    return [ra + rb for ra, rb in zip(a, b)]


def list_sum(a, b) -> list[list[int]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def list_difference(a, b) -> list[list[int]]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def list_negation(a) -> list[list[int]]:
    return [[-x for x in row] for row in a]


def list_scalar_multiple(c, a) -> list[list[int]]:
    return [[c * x for x in row] for row in a]


def chain_from_diagonal(diag) -> list[int]:
    """Normalize a diagonal multiset into an invariant-factor chain.

    Pairwise gcd/lcm sweeps until every entry divides the next; entries
    equal to 1 are dropped at the end.
    """
    values = [abs(d) for d in diag if d]
    changed = True
    while changed:
        changed = False
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                a, b = values[i], values[j]
                if b % a:
                    g = gcd(a, b)
                    values[i], values[j] = g, a * b // g
                    changed = True
    return [v for v in values if v > 1]


# ----------------------------------------------------------------------
# quotient enumeration
# ----------------------------------------------------------------------


def triangular_row_basis(rows, n) -> list[list[int]]:
    """Row-reduce a spanning set of a sublattice of Z^n to echelon form.

    Only invertible row operations are used, so the row span is
    unchanged.  Returned rows have strictly increasing pivot columns,
    zeros before each pivot, and positive pivots.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    basis = []
    for col in range(n):
        active = [r for r in work if r[col] != 0]
        passive = [r for r in work if r[col] == 0]
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[col]))
            pivot = active[0]
            survivors = [pivot]
            for r in active[1:]:
                q = r[col] // pivot[col]
                reduced = [x - q * y for x, y in zip(r, pivot)]
                if reduced[col]:
                    survivors.append(reduced)
                elif any(reduced):
                    passive.append(reduced)
            if len(survivors) == 1:
                active = survivors
                break
            active = survivors
        if active:
            pivot = active[0]
            if pivot[col] < 0:
                pivot = [-x for x in pivot]
            basis.append(pivot)
        work = passive
    return basis


def in_row_lattice(rows, n, vector) -> bool:
    """True iff vector in Z^n is an integer combination of the rows.

    Reduces the vector against the echelon basis, pivot by pivot: each
    pivot must divide what is left in its column.
    """
    v = list(map(int, vector))
    for row in triangular_row_basis(rows, n):
        p = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[p], row[p])
        if r:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


class EnumeratedQuotient:
    """Z^n modulo a finite-index row lattice, enumerated outright."""

    def __init__(self, relation_rows, n):
        basis = triangular_row_basis(relation_rows, n)
        if len(basis) != n:
            raise ValueError("quotient is infinite")
        self.n = n
        self.basis = basis
        self.pivots = [basis[i][i] for i in range(n)]

    def canon(self, vector) -> tuple[int, ...]:
        v = list(map(int, vector))
        for i, row in enumerate(self.basis):
            q = v[i] // row[i]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return tuple(v)

    def elements(self) -> list[tuple[int, ...]]:
        return [self.canon(v) for v in product(*(range(p) for p in self.pivots))]

    def add(self, a, b) -> tuple[int, ...]:
        return self.canon([x + y for x, y in zip(a, b)])

    def order_of(self, a) -> int:
        zero = self.canon([0] * self.n)
        current = self.canon(a)
        count = 1
        while current != zero:
            current = self.add(current, a)
            count += 1
        return count

    def size(self) -> int:
        return len(set(self.elements()))


def enumerated_cyclic_order(relation_rows, n) -> int | None:
    """Largest element order of the enumerated quotient, or None if infinite."""
    try:
        q = EnumeratedQuotient(relation_rows, n)
    except ValueError:
        return None
    return max(q.order_of(e) for e in q.elements())


def first_nonassociative_triple(table):
    """The first (x, y, z) in lexicographic order with (x y) z != x (y z), or None.

    Every one of the n^3 triples is tried: the check the library made
    before it took Light's test.
    """
    n = len(table)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return x, y, z
    return None


def full_group_presentation(table) -> list[list[int]]:
    """All m(m+1)/2 relations e_i + e_j - e_{i+j} of a group's Cayley table.

    One symbol per element and one relation per unordered pair; their
    cokernel is the group.  The library presents the same group on far
    fewer relations, through a generating set.
    """
    m = len(table)
    rows = []
    for i in range(m):
        for j in range(i, m):
            row = [0] * m
            row[i] += 1
            row[j] += 1
            row[table[i][j]] -= 1
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# integer vectors and polynomials
# ----------------------------------------------------------------------


def content(values) -> int:
    """gcd of a sequence of integers (0 for the empty or all-zero sequence)."""
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def elementary_values(roots) -> list[int]:
    """e_1 .. e_n of the n integer roots, from the expansion of prod(1 + r t)."""
    e = [1]
    for r in roots:
        e = [a + r * b for a, b in zip(e + [0], [0] + e)]
    return e[1:]


def exp_nilpotent(p: TruncPoly) -> TruncPoly:
    """Exponential of a polynomial with zero constant term.

    The argument is nilpotent in the truncated ring, so the series stops
    at the truncation order and every coefficient is an exact rational.
    """
    from kproj.truncpoly import TruncPoly

    if p.coeffs[0] != 0:
        raise ValueError("exp requires a zero constant term")
    result = TruncPoly.one(p.order)
    term = TruncPoly.one(p.order)
    for k in range(1, p.order + 1):
        term = term * p * Fraction(1, k)
        result = result + term
    return result


def elementary_symmetric(k: int, n: int) -> MultiPoly:
    """k-th elementary symmetric polynomial in n variables (zero for k > n)."""
    from kproj.truncpoly import MultiPoly

    if k < 0:
        raise ValueError("index must be nonnegative")
    if k == 0:
        return MultiPoly.constant(n, 1)
    if k > n:
        return MultiPoly.zero(n)
    terms = {}
    for subset in combinations(range(n), k):
        exps = tuple(1 if i in subset else 0 for i in range(n))
        terms[exps] = 1
    return MultiPoly(n, terms)


def power_sum(k: int, n: int) -> MultiPoly:
    """k-th power sum x_1^k + .. + x_n^k."""
    from kproj.truncpoly import MultiPoly

    if k < 1:
        raise ValueError("index must be at least 1")
    terms = {}
    for i in range(n):
        exps = tuple(k if j == i else 0 for j in range(n))
        terms[exps] = 1
    return MultiPoly(n, terms)


def stirling2_rows():
    """Stirling numbers of the second kind: row m holds S(m, 0), .., S(m, m), for m = 0, 1, ..

    Built row by row from S(m, k) = k S(m-1, k) + S(m-1, k-1), without end.
    """
    row = [1]
    while True:
        yield row
        prev = row + [0]
        row = [0] + [k * prev[k] + prev[k - 1] for k in range(1, len(prev))]


def stirling_character(coeffs) -> list[Fraction]:
    """Coefficients of the character of sum_k c_k γ^k, where γ goes to exp(x) - 1.

    (exp(x) - 1)^k = sum_m k! S(m, k) x^m / m!, so the degree-m
    coefficient is sum_k c_k k! S(m, k) / m!.
    """
    return [Fraction(sum(c * factorial(k) * row[k] for k, c in enumerate(coeffs) if k <= m),
                     factorial(m))
            for m, row in zip(range(len(coeffs)), stirling2_rows())]


def verify_certificates(document: dict) -> list[dict]:
    """Re-check each stage of a `kproj trace N --certificates` document.

    Plain ints, nothing from kproj.  A map is (rows, cols, {(row, col):
    value}).  Half h, positions 3h to 3h + 2, has generator f = map 3h,
    restriction g = map 3h + 1 and splitting (r, σ).  Exactness at i is
    map i after map i - 1 being zero and r f, f r + σ g or g σ (sphere,
    middle, quotient) being the identity on rank i.  Each stage starts
    from the sphere ranks (1, 0) and the previous stage's conclusions (the
    point's (0, 0) first).  Returns the verdicts as the document has them.

    Stage index m - 1 reads its sphere class c = sum_i c_i γ^i off column
    0 of map 0, row i - 1 holding c_i, and nothing else for its other two
    verdicts; both are false unless map 0 has m rows, so that c lies in
    K~(CP^m):
    - chern: ch(c) = ±x^m in Q[x]/(x^(m+1)).  ch(γ^i) = (exp(x) - 1)^i =
      sum_d i! S(d, i) x^d / d!, so d! [x^d] ch(c) = sum_i c_i i! S(d, i),
      which must be 0 for d < m and ±m! at d = m.  S(d, i) = 0 for d < i, so
      only degrees from the lowest power of c up are summed, over its nonzeros.
    - bott: γ times the previous stage's class (the unit γ^0 of the point's
      K before stage 0) is c in K(CP^m).  γ^a γ^b = γ^(a+b), and γ^(m+1) = 0
      there; the previous class lies in K(CP^(m-1)), so the product is that
      class shifted up one power, with no term past γ^m to drop.
    The Stirling rows are built once per document, one more per stage.
    """
    def read(m):
        rows, cols, out = m["rows"], m["cols"], {}
        for i, j, v in m["entries"]:
            if not (0 <= i < rows and 0 <= j < cols):
                return None
            out[i, j] = out.get((i, j), 0) + v
        return rows, cols, {key: v for key, v in out.items() if v}

    def times(a, b):
        if a is None or b is None or a[1] != b[0]:
            return None
        by_row, out = {}, {}
        for (t, j), v in b[2].items():
            by_row.setdefault(t, []).append((j, v))
        for (i, t), w in a[2].items():
            for j, v in by_row.get(t, ()):
                out[i, j] = out.get((i, j), 0) + w * v
        return a[0], b[1], {key: v for key, v in out.items() if v}

    def plus(a, b):
        if a is None or b is None or a[:2] != b[:2]:
            return None
        out = dict(a[2])
        for key, v in b[2].items():
            out[key] = out.get(key, 0) + v
        return a[0], a[1], {key: v for key, v in out.items() if v}

    def eye(n):
        return n, n, {(i, i): 1 for i in range(n)}

    def chern(c, m):
        if not c:
            return False
        sums = [sum(v * factorials[i] * stirling[d][i] for i, v in c.items() if i <= d)
                for d in range(min(c), m + 1)]
        return sums[-1] in (factorials[m], -factorials[m]) and not any(sums[:-1])

    verdicts, previous, below = [], [0, 0], {0: 1}
    stirling_rows = stirling2_rows()
    stirling, factorials = [next(stirling_rows)], [1]  # S(d, .) and d! for d = 0, .., m
    for index, stage in enumerate(document["result"]["certificates"]["stages"]):
        ranks, maps = stage["ranks"], [read(m) for m in stage["maps"]]
        linked = (stage["stage"] == index and [ranks[0], ranks[3]] == [1, 0]
                  and [ranks[2], ranks[5]] == previous)
        exactness = []
        for i, split in zip((0, 3), stage["splittings"]):
            (f, g), r, sigma = maps[i:i + 2], read(split["retraction"]), read(split["section"])
            identities = times(r, f), plus(times(f, r), times(sigma, g)), times(g, sigma)
            for j, identity in enumerate(identities, i):
                composite = times(maps[j], maps[j - 1])
                exactness.append(linked and composite is not None and not composite[2]
                                 and identity == eye(ranks[j]))
        previous, m = [ranks[1], ranks[4]], index + 1
        stirling.append(next(stirling_rows))
        factorials.append(factorials[-1] * m)
        c = ({i + 1: v for (i, j), v in maps[0][2].items() if j == 0}
             if maps[0] is not None and maps[0][0] == m else None)
        shifted = None if below is None else {a + 1: v for a, v in below.items()}
        verdicts.append({"exactness": exactness, "chern": chern(c, m),
                         "bott": c is not None and shifted == c})
        below = c
    return verdicts
