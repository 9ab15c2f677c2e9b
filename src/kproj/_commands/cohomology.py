"""kproj cohomology SPACE [--degree K]: the integral cohomology of a cell complex."""

from __future__ import annotations

from .. import homology, ktheory

# cohomology of cpn:N or sphere:M builds a cell complex of top degree 2N
# or M and prints one row per degree: top degree 30000 takes about 2 s
# and prints 4.8 MB
COHOMOLOGY_MAX_TOP = 30000


def _space_complex(space: ktheory.Space):
    top = space.parameter if space.kind == "sphere" else 2 * space.parameter
    if top > COHOMOLOGY_MAX_TOP:
        raise ValueError(f"the cell complex needs top degree at most {COHOMOLOGY_MAX_TOP}")
    if space.kind == "sphere":
        return homology.sphere_complex(space.parameter)
    return homology.cpn_complex(space.parameter)  # the point is CP^0: its parameter is 0


def run(args) -> tuple[dict, dict, tuple]:
    space = ktheory.Space.parse(args.space)
    complex_ = _space_complex(space)
    if args.degree is not None:
        degrees = [args.degree]
    else:
        degrees = list(range(complex_.top + 1))
    rows = [
        {"label": f"H^{k}", "degree": k, "kind": "group",
         **homology.cohomology(complex_, k).payload()}
        for k in degrees
    ]
    result = {"kind": "group-table", "rows": rows}
    inputs = {"space": str(space)}
    if args.degree is not None:
        inputs["degree"] = args.degree
    return inputs, result, ()


def report(result: dict) -> str:
    return "\n".join(f"{row['label']} = {row['text']}" for row in result["rows"])
