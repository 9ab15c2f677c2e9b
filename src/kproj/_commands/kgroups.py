"""kproj kgroups SPACE [--q Q]: one K-group of a space, from the certified induction."""

from __future__ import annotations

from .. import _commands, ktheory


def run(args) -> tuple[dict, dict, tuple]:
    space = ktheory.Space.parse(args.space)
    if space.kind == "cpn":
        _commands.check_induction_size(space.parameter, "the certified induction")
    group = ktheory.k_groups(space, args.q)
    result = {"kind": "group", **group.payload(), "label": f"K^{args.q}({space.label()})"}
    return {"space": str(space), "q": args.q}, result, ()


def report(result: dict) -> str:
    return f"{result['label']} = {result['text']}"
