"""kproj bott-check: the periodicity instance on the 2-sphere."""

from __future__ import annotations

from .. import ktheory


def run(args) -> tuple[dict, dict, tuple]:
    matrix = ktheory.bott_matrix()
    unimodular = ktheory.bott_check()
    result = {"kind": "bott-check", "matrix": matrix.row_lists(), "unimodular": unimodular}
    return {}, result, (("the periodicity instance on the 2-sphere", "unimodular", unimodular),)


def report(result: dict) -> str:
    rows = result["matrix"]
    return "\n".join(["matrix: " + "; ".join(" ".join(str(e) for e in row) for row in rows),
                      "unimodular: " + ("yes" if result["unimodular"] else "no")])
