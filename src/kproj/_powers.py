"""Arithmetic on coefficient lists against the powers 1, x, x^2, .. of one variable.

The truncated product and the signed-sum renderer are shared by the
truncated polynomials of truncpoly and by the virtual-bundle ring of
ktheory; powering, like every operator derived from the product, is
_record.Ring's.  Neither needs a Fraction, so the ring can use them
without loading truncpoly or the fractions module.

The product and the renderer cost the nonzero coefficients:
itertools.compress picks out the nonzero indices at C speed, and only
those are visited in Python.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import compress


def truncated_product(a: Sequence, b: Sequence) -> list:
    """Coefficients of a * b cut at degree len(a) - 1; len(b) == len(a).

    A term a_i * b_j survives the cut only if i + j < n, so a is read
    below n - (lowest nonzero degree of b) and b below n - (lowest
    nonzero degree of a): a product that vanishes at this truncation
    costs n + 1 reads in all.
    """
    n = len(a)
    out = [0] * n
    a_degrees = list(compress(range(n - next(compress(range(n), b), n)), a))
    if a_degrees:
        b_degrees = list(compress(range(n - a_degrees[0]), b))
        for i in a_degrees:
            ai, room = a[i], n - i
            for j in b_degrees:
                if j >= room:
                    break
                out[i + j] += ai * b[j]
    return out


@lru_cache(maxsize=4)
def power_names(var: str, n: int) -> tuple[str, ...]:
    """Monomial texts of 1, var, var^2, .., var^n; the constant's is ''."""
    return ("", var, *(f"{var}^{k}" for k in range(2, n + 1)))[:n + 1]


def render_sum(terms) -> str:
    """Signed sum of (coefficient, monomial text) pairs, zeros skipped.

    A unit coefficient is dropped before a monomial but not on the
    constant term: "2 - x + 3/2*x^2".
    """
    parts = []
    for c, monomial in terms:
        if not c:
            continue
        if c < 0:
            sign, mag = (" - " if parts else "-"), -c
        else:
            sign, mag = (" + " if parts else ""), c
        if not monomial:
            parts.append(sign + str(mag))
        elif mag == 1:
            parts.append(sign + monomial)
        else:
            parts.append(sign + str(mag) + "*" + monomial)
    return "".join(parts) if parts else "0"


def render_powers(coeffs: Sequence, var: str) -> str:
    """render_sum of coeffs against 1, var, .., var^n, visiting the nonzero ones only."""
    names = power_names(var, len(coeffs) - 1)
    return render_sum((coeffs[k], names[k]) for k in compress(range(len(coeffs)), coeffs))
