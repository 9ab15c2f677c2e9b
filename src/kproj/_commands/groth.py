"""kproj groth --table FILE: the group completion of a Cayley-table monoid."""

from __future__ import annotations

from .. import grothendieck

# groth --table parses n^2 entries, checks associativity by Light's test,
# n row compositions per element of a greedy generating set, and counts
# element orders to classify the class group.  A group needs at most
# log2(n) + 1 generators: end to end, groups of order 512 take 0.24-0.35 s
# and of order 1024 0.9-1.2 s and 126 MB.  A monoid with no small
# generating set, such as x + y = max(x, y), needs all n, so n^3 lookups
# at C speed: 0.8 s at n = 288 and 2.7-4.0 s at 512, about what groups of
# order 288 took before Light's test
GROTH_MAX_ORDER = 512


def run(args) -> tuple[dict, dict]:
    with open(args.table, "r", encoding="utf-8") as handle:
        text = handle.read()
    header = text.split(maxsplit=1)
    if header and int(header[0]) > GROTH_MAX_ORDER:
        raise ValueError(f"the Cayley table needs order at most {GROTH_MAX_ORDER}")
    monoid = grothendieck.FiniteCommutativeMonoid.from_text(text)
    group = grothendieck.completion(monoid)
    result = {"kind": "group", **group.carrier.payload(), "classes": group.class_count}
    return {"table": args.table}, result


def report(result: dict) -> str:
    return f"{result['text']}\npair classes: {result['classes']}"
