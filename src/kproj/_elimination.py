"""The general Smith elimination over Z, for matrices the closed form does not cover.

linalg calls _invariant_factors when d is read before the transforms,
_eliminate for the transforms of a matrix that is not a signed partial
permutation, and _bareiss for a determinant.  The induction replay that
trace prints reads transforms first, of signed partial permutations only,
and the certified induction behind kgroups cpn:N builds no matrix at all,
so neither calls any of them: kproj registers this module lazily, and
such a process never compiles or runs it.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from math import gcd, prod
from operator import add, itemgetter, neg, sub

from . import linalg


def _bareiss(a: linalg.IntegerMatrix) -> tuple[int, list[int]]:
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


def _invariant_factors(a: linalg.IntegerMatrix) -> tuple[int, ...]:
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


def _diagonal_mod(a: linalg.IntegerMatrix, modulus: int, k: int) -> list[int]:
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

def _unit_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def _eliminate(a: linalg.IntegerMatrix):
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
    operation on it is a row operation on a list.
    """
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
    return (diag, linalg.IntegerMatrix._make(m, m, tuple(chain.from_iterable(u))),
            linalg.IntegerMatrix._make(n, n, tuple(chain.from_iterable(zip(*vt)))))
