"""kproj ch: the Chern character of a class on cpn:N or of a formal bundle."""

from __future__ import annotations

from .. import chern, ktheory, truncpoly


def _poly_payload(p: truncpoly.TruncPoly) -> dict:
    return {
        "kind": "poly",
        "order": p.order,
        "coefficients": [str(c) for c in p.coeffs],
        "text": p.render(),
    }


def run(args) -> tuple[dict, dict]:
    # the degree-k coefficient of ch has a denominator up to k!; at order 1700
    # it exceeds Python's default int-to-str limit of 4300 digits
    max_order = truncpoly.PARSE_MAX_ORDER
    if args.chern is not None:
        if args.space is not None or args.klass is not None:
            raise ValueError("--chern selects the bundle form; drop the space spec")
        if args.rank is None or args.order is None:
            raise ValueError("--chern needs --rank and --order")
        if args.order > max_order:
            raise ValueError(f"--order must be at most {max_order}")
        total = truncpoly.TruncPoly.parse(args.chern, order=args.order)
        bundle = chern.FormalBundle(args.rank, total)
        character = chern.chern_character(bundle, args.order)
        inputs = {"rank": args.rank, "chern": args.chern, "order": args.order}
        return inputs, _poly_payload(character)
    if args.space is None or args.klass is None:
        raise ValueError("ch needs a space spec with --class, or --rank/--chern/--order")
    if args.rank is not None or args.order is not None:
        raise ValueError("--class selects the class form; drop --rank and --order")
    space = ktheory.Space.parse(args.space)
    if space.kind != "cpn":
        raise ValueError("class coefficients make sense on cpn:N only")
    if space.parameter > max_order:
        raise ValueError(f"ch needs cpn:N with N at most {max_order}")
    coeffs = [int(t) for t in args.klass.split(",")]
    if len(coeffs) != space.parameter + 1:
        raise ValueError(
            f"expected {space.parameter + 1} coefficients for {space}"
        )
    character = ktheory.chern_character_map(ktheory.KClass(space.parameter, tuple(coeffs)))
    inputs = {"space": str(space), "class": args.klass}
    return inputs, _poly_payload(character)


def report(result: dict) -> str:
    return result["text"]
