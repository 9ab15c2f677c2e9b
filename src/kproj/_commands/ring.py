"""kproj ring N: the virtual-bundle ring Z[γ]/(γ^(N+1)) and its product table."""

from __future__ import annotations

from .. import ktheory

# ring N renders (N+1)^2 products, each a dense tuple of N + 1
# coefficients scanned at C speed: ring 200 takes 0.6-0.7 s end to end and
# prints 0.7 MB, and in-process ring 400 about 3.8 s and 2.8 MB
RING_MAX_N = 200


def run(args) -> tuple[dict, dict, tuple]:
    n = args.n
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > RING_MAX_N:
        raise ValueError(f"n must be at most {RING_MAX_N}")
    gamma = ktheory.KClass.gamma(n)
    powers = [ktheory.KClass.unit(n)]
    for _ in range(n):
        powers.append(powers[-1] * gamma)
    basis = [p.render() for p in powers]
    table = [[ktheory.k_ring_mul(a, b).render() for b in powers] for a in powers]
    result = {
        "kind": "ring",
        "n": n,
        "presentation": f"Z[γ]/(γ^{n + 1})",
        "basis": basis,
        "products": table,
    }
    return {"n": n}, result, ()


def report(result: dict) -> str:
    lines = [result["presentation"], "basis: " + ", ".join(result["basis"]),
             "products γ^i * γ^j:"]
    for i, row in enumerate(result["products"]):
        lines.append(f"  {result['basis'][i]}: " + ", ".join(row))
    return "\n".join(lines)
