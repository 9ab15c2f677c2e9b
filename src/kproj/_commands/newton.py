"""kproj newton --k K: the Newton polynomial s_k in the elementary symmetric functions."""

from __future__ import annotations

from .. import chern

# s_k has p(k) terms, one per partition of k, and the cost is the size of
# the output: building s_40 takes about 0.3 s in-process, and newton --k 40
# prints 23.5 MB in about 2.7 s end to end (--k 34: 6.8 MB in 0.7 s)
NEWTON_MAX_K = 40


def run(args) -> tuple[dict, dict]:
    if args.k > NEWTON_MAX_K:
        raise ValueError(f"--k must be at most {NEWTON_MAX_K}: s_k has p(k) terms")
    poly = chern.newton_s(args.k)
    terms = [
        {"exponents": list(e), "coefficient": str(c)}
        for e, c in sorted(poly.expression.terms.items())
    ]
    result = {
        "kind": "newton",
        "k": args.k,
        "variables": poly.variable_names(),
        "terms": terms,
        "text": poly.render(),
    }
    return {"k": args.k}, result


def report(result: dict) -> str:
    return f"s_{result['k']} = {result['text']}"
