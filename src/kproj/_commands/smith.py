"""kproj smith --matrix FILE: the Smith normal form and cokernel of an integer matrix."""

from __future__ import annotations

from .. import linalg

# smith --matrix finds the invariant factors by a fraction-free pass and an
# elimination modulo a multiple of a determinantal divisor, in time growing
# with the side and with the entry size: a 100 x 100 square with random
# 24-bit entries takes 1.5-1.9 s end to end, and 2^23 times a random
# {-1, 0, 1} matrix, whose 100 factors are all large, about 1.6 s; with
# 64-bit entries about 8 s in-process
SMITH_MAX_SIDE = 100
SMITH_MAX_BITS = 24


def run(args) -> tuple[dict, dict, tuple]:
    with open(args.matrix, "r", encoding="utf-8") as handle:
        text = handle.read()
    header = text.split(maxsplit=2)[:2]
    if len(header) == 2 and max(map(int, header)) > SMITH_MAX_SIDE:
        raise ValueError(f"the matrix needs rows and cols at most {SMITH_MAX_SIDE}")
    matrix = linalg.IntegerMatrix.from_text(text)
    if any(e.bit_length() > SMITH_MAX_BITS for e in matrix.entries):
        raise ValueError(f"matrix entries need absolute value below 2^{SMITH_MAX_BITS}")
    form = linalg.smith_normal_form(matrix)
    result = {
        "kind": "smith",
        "rows": matrix.rows,
        "cols": matrix.cols,
        "d": form.d,
        "rank": form.rank,
        "cokernel": {"kind": "group", **linalg.cokernel(matrix).payload()},
    }
    return {"matrix": args.matrix}, result, ()


def report(result: dict) -> str:
    return "\n".join([
        "invariant factors: " + (" ".join(str(d) for d in result["d"]) or "(none)"),
        f"rank: {result['rank']}",
        f"cokernel: {result['cokernel']['text']}",
    ])
