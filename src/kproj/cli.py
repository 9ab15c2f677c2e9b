"""Batch command-line front end.

Every subcommand prints either a human-readable report (the default) or a
machine-readable JSON document selected with --format machine.  A
subcommand returns the echo of its inputs and a result payload that json
writes as it is; the report is rendered from the payload, and the
machine document is the one object {format_version, command, inputs,
result}, written with sorted keys and an indent of two.  Results go to
stdout, diagnostics to stderr, and the exit status is zero exactly when
the computation succeeded: 2 for bad input, and 3 when a verdict of the
certified induction is false, which good input never meets.

The grammar, top-level options and subcommands with their arguments, is
declared once, as tables that two readers share.  A plain command line
is read by _read, exact matches only, without importing argparse;
anything else (help, an abbreviation, an error) goes to the parser that
build_parser makes from the same tables, so help, usage and every parse
error are argparse's own.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from . import __version__, _certify, chern, grothendieck, homology, ktheory, linalg, truncpoly

FORMAT_VERSION = "1"

# s_k has p(k) terms, one per partition of k, and the cost is the size of
# the output: building s_40 takes about 0.3 s in-process, and newton --k 40
# prints 23.5 MB in about 2.7 s end to end (--k 34: 6.8 MB in 0.7 s)
NEWTON_MAX_K = 40
# ring N renders (N+1)^2 products, each a dense tuple of N + 1
# coefficients scanned at C speed: ring 200 takes 0.6-0.7 s end to end and
# prints 0.7 MB, and in-process ring 400 about 3.8 s and 2.8 MB
RING_MAX_N = 200
# trace N replays the induction, which grows faster than N^2: end to end,
# 0.17-0.20 s at N = 100 and 0.60-0.73 s at N = 200 (quartiles of 11, no
# bytecode cache) on a shared 2-vCPU x86-64 host under Python 3.11, so N
# stays at most 200 until trace 200 runs in under 0.5 s.  kgroups cpn:N
# certifies the induction instead, O(k) sparse entries at stage k, about N^2
# in all (0.16-0.23 s end to end at N = 200, quartiles of 21; 0.07 s of it
# certifying, in-process), and keeps the same bound until the certificate
# replaces the replay in trace
REPLAY_MAX_N = 200
# cohomology of cpn:N or sphere:M builds a cell complex of top degree 2N
# or M and prints one row per degree: top degree 30000 takes about 2 s
# and prints 4.8 MB
COHOMOLOGY_MAX_TOP = 30000
# smith --matrix finds the invariant factors by a fraction-free pass and an
# elimination modulo a multiple of a determinantal divisor, in time growing
# with the side and with the entry size: a 100 x 100 square with random
# 24-bit entries takes 1.5-1.9 s end to end, and 2^23 times a random
# {-1, 0, 1} matrix, whose 100 factors are all large, about 1.6 s; with
# 64-bit entries about 8 s in-process
SMITH_MAX_SIDE = 100
SMITH_MAX_BITS = 24
# groth --table parses n^2 entries, checks associativity by Light's test,
# n row compositions per element of a greedy generating set, and counts
# element orders to classify the class group.  A group needs at most
# log2(n) + 1 generators: end to end, groups of order 512 take 0.24-0.35 s
# and of order 1024 0.9-1.2 s and 126 MB.  A monoid with no small
# generating set, such as x + y = max(x, y), needs all n, so n^3 lookups
# at C speed: 0.8 s at n = 288 and 2.7-4.0 s at 512, about what groups of
# order 288 took before Light's test
GROTH_MAX_ORDER = 512


# ----------------------------------------------------------------------
# payload builders (values json writes as they are; tuples become arrays)
# ----------------------------------------------------------------------


def _group_fields(g: linalg.FgAbelianGroup) -> dict:
    return {"free_rank": g.free_rank, "torsion": g.torsion, "text": g.render()}


def _group_payload(g: linalg.FgAbelianGroup) -> dict:
    return {"kind": "group", **_group_fields(g)}


def _poly_payload(p: truncpoly.TruncPoly) -> dict:
    return {
        "kind": "poly",
        "order": p.order,
        "coefficients": [str(c) for c in p.coeffs],
        "text": p.render(),
    }


def _space_complex(space: ktheory.Space):
    top = 2 * space.parameter if space.kind == "cpn" else space.parameter
    if top > COHOMOLOGY_MAX_TOP:
        raise ValueError(f"the cell complex needs top degree at most {COHOMOLOGY_MAX_TOP}")
    if space.kind == "cpn":
        return homology.cpn_complex(space.parameter)
    if space.kind == "sphere":
        return homology.sphere_complex(space.parameter)
    return homology.cpn_complex(0)


# ----------------------------------------------------------------------
# subcommand implementations: each returns (inputs, result)
# ----------------------------------------------------------------------


def _run_cohomology(args) -> tuple[dict, dict]:
    space = ktheory.Space.parse(args.space)
    complex_ = _space_complex(space)
    if args.degree is not None:
        degrees = [args.degree]
    else:
        degrees = list(range(complex_.top + 1))
    rows = [
        {"label": f"H^{k}", "degree": k, **_group_payload(homology.cohomology(complex_, k))}
        for k in degrees
    ]
    result = {"kind": "group-table", "rows": rows}
    inputs = {"space": str(space)}
    if args.degree is not None:
        inputs["degree"] = args.degree
    return inputs, result


def _run_kgroups(args) -> tuple[dict, dict]:
    space = ktheory.Space.parse(args.space)
    if space.kind == "cpn":
        _check_replay_size(space.parameter)
    group = ktheory.k_groups(space, args.q)
    result = {**_group_payload(group), "label": f"K^{args.q}({space.label()})"}
    return {"space": str(space), "q": args.q}, result


def _run_ring(args) -> tuple[dict, dict]:
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
    return {"n": n}, result


def _run_ch(args) -> tuple[dict, dict]:
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


def _check_replay_size(n: int) -> None:
    if n > REPLAY_MAX_N:
        raise ValueError(f"the induction replay needs N at most {REPLAY_MAX_N}")


def _run_trace(args) -> tuple[dict, dict]:
    _check_replay_size(args.n)
    trace = ktheory.replay_induction(args.n)
    result = {
        "kind": "induction-trace",
        "space": f"cpn:{trace.n}",
        "steps": [{name: getattr(step, name) for name in step._fields} for step in trace.steps],
        "reduced_k0": _group_fields(trace.reduced_k0),
        "k0": _group_fields(trace.k0),
        "k1": _group_fields(trace.k1),
    }
    inputs = {"n": args.n}
    if args.certificates:
        # the human report prints one line per stage: only the machine
        # document writes each stage's maps and splittings
        machine, certified, stages = args.format == "machine", True, []
        for stage in _certify.stages(args.n):
            certified = certified and not stage.failures()
            stages.append(stage.payload() if machine else {"stage": stage.k, "text": stage.render()})
        inputs["certificates"] = True
        result["certificates"] = {"certified": certified, "stages": stages}
    return inputs, result


def _run_newton(args) -> tuple[dict, dict]:
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


def _run_groth(args) -> tuple[dict, dict]:
    with open(args.table, "r", encoding="utf-8") as handle:
        text = handle.read()
    header = text.split(maxsplit=1)
    if header and int(header[0]) > GROTH_MAX_ORDER:
        raise ValueError(f"the Cayley table needs order at most {GROTH_MAX_ORDER}")
    monoid = grothendieck.FiniteCommutativeMonoid.from_text(text)
    group = grothendieck.completion(monoid)
    result = {**_group_payload(group.carrier), "classes": group.class_count}
    return {"table": args.table}, result


def _run_smith(args) -> tuple[dict, dict]:
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
        "cokernel": _group_payload(linalg.cokernel(matrix)),
    }
    return {"matrix": args.matrix}, result


def _run_bott_check(args) -> tuple[dict, dict]:
    matrix = ktheory.bott_matrix()
    result = {
        "kind": "bott-check",
        "matrix": matrix.row_lists(),
        "unimodular": ktheory.bott_check(),
    }
    return {}, result


# ----------------------------------------------------------------------
# human rendering
# ----------------------------------------------------------------------


def _render_human(result: dict) -> str:
    kind = result.get("kind")
    lines = []
    if kind == "group-table":
        for row in result["rows"]:
            lines.append(f"{row['label']} = {row['text']}")
    elif kind == "group":
        label = result.get("label")
        lines.append(f"{label} = {result['text']}" if label else result["text"])
        if result.get("classes") is not None:
            lines.append(f"pair classes: {result['classes']}")
    elif kind == "poly":
        lines.append(result["text"])
    elif kind == "ring":
        lines.append(result["presentation"])
        lines.append("basis: " + ", ".join(result["basis"]))
        lines.append("products γ^i * γ^j:")
        for i, row in enumerate(result["products"]):
            lines.append(f"  {result['basis'][i]}: " + ", ".join(row))
    elif kind == "newton":
        lines.append(f"s_{result['k']} = {result['text']}")
    elif kind == "induction-trace":
        lines.append(f"induction replay for {result['space']}")
        for step in result["steps"]:
            window = " -> ".join(step["window"])
            checks = []
            if step["exactness"]:
                verdict = "ok" if all(step["exactness"]) else "FAILED"
                checks.append(f"exactness {verdict}")
            if step["five_lemma"] is not None:
                checks.append("five-lemma ok" if step["five_lemma"] else "five-lemma FAILED")
            suffix = f" [{'; '.join(checks)}]" if checks else ""
            lines.append(f"step {step['index']} ({step['kind']}, stage {step['stage']}): "
                         f"{window}{suffix}")
            lines.append(f"  => {step['conclusion']}")
        lines.append(f"K^0 = {result['k0']['text']}")
        lines.append(f"K^1 = {result['k1']['text']}")
        for stage in result.get("certificates", {}).get("stages", ()):
            lines.append(f"certified stage {stage['stage']}: {stage['text']}")
    elif kind == "smith":
        lines.append("invariant factors: "
                     + (" ".join(str(d) for d in result["d"]) or "(none)"))
        lines.append(f"rank: {result['rank']}")
        lines.append(f"cokernel: {result['cokernel']['text']}")
    elif kind == "bott-check":
        rows = result["matrix"]
        lines.append("matrix: " + "; ".join(" ".join(str(e) for e in row) for row in rows))
        lines.append("unimodular: " + ("yes" if result["unimodular"] else "no"))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the command-line grammar, declared once: build_parser and _read both read it
# ----------------------------------------------------------------------

SPACE_HELP = "space spec: cpn:N, sphere:M, or point"

# each argument is its name or flag with its argparse keywords: dest, type,
# default, action, nargs, choices, required and help, where they are set
OPTIONS = {
    "--format": {"choices": ("human", "machine"), "default": "human",
                 "help": "output format (default: human)"},
    "--version": {"action": "store_true", "help": "print library and format versions and exit"},
}
# each subcommand is (help, run function, arguments)
SUBCOMMANDS = {
    "cohomology": ("integral cohomology of a space", _run_cohomology, {
        "space": {"help": SPACE_HELP},
        "--degree": {"type": int, "default": None},
    }),
    "kgroups": ("K-group of a space in one degree", _run_kgroups, {
        "space": {"help": SPACE_HELP},
        "--q": {"type": int, "default": 0},
    }),
    "ring": ("the virtual-bundle ring on cpn:N", _run_ring, {
        "n": {"type": int},
    }),
    "ch": ("Chern character of a class or formal bundle", _run_ch, {
        "space": {"nargs": "?", "default": None,
                  "help": "ambient space cpn:N for the class form"},
        "--class": {"dest": "klass", "default": None,
                    "help": "comma-separated coefficients against 1, γ, .., γ^n"},
        "--rank": {"type": int, "default": None, "help": "bundle rank (bundle form)"},
        "--chern": {"default": None,
                    "help": "total Chern class, e.g. \"1+2x+x^2\" (bundle form)"},
        "--order": {"type": int, "default": None, "help": "truncation order (bundle form)"},
    }),
    "trace": ("replay the K-group induction for cpn:N", _run_trace, {
        "n": {"type": int},
        "--certificates": {"action": "store_true",
                           "help": "add the certified induction: per stage its window, maps, "
                                   "splittings and verdicts"},
    }),
    "newton": ("Newton polynomial s_k", _run_newton, {
        "--k": {"type": int, "required": True},
    }),
    "groth": ("group completion of a Cayley-table monoid", _run_groth, {
        "--table": {"required": True, "help": "Cayley table file"},
    }),
    "smith": ("Smith normal form of a matrix file", _run_smith, {
        "--matrix": {"required": True,
                     "help": "matrix file: first line 'rows cols', then entries"},
    }),
    "bott-check": ("periodicity instance on the 2-sphere", _run_bott_check, {}),
}


def build_parser():
    """The argparse parser of the grammar: help, usage and every parse error are its own."""
    import argparse  # here only: a plain command line is read without it

    parser = argparse.ArgumentParser(
        prog="kproj",
        description="Exact K-theory and cohomology computations for projective "
                    "spaces and spheres.",
    )
    for flag, settings in OPTIONS.items():
        parser.add_argument(flag, **settings)
    sub = parser.add_subparsers(dest="subcommand")
    for name, (help_, run, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, settings in arguments.items():
            p.add_argument(flag, **settings)
        p.set_defaults(run=run)
    return parser


def _read(argv):
    """The namespace build_parser() makes of a plain argv, or None for any other argv.

    Plain is what every argparse reads alike: options spelt out in full,
    each where it belongs (the top-level ones before the subcommand), a
    value joined by = (not starting with --) or given as the next word
    (not starting with -), values that convert and are among the choices,
    the subcommand's positionals in number (one with nargs "?" before the
    subcommand's options), its required options present, and a
    subcommand or --version.  Help, abbreviations and errors are left to
    argparse.
    """
    values, arguments, positionals, optioned = {"subcommand": None}, OPTIONS, [], False

    def convert(settings, word):
        try:
            value = settings.get("type", str)(word)
        except ValueError:
            return None
        return value if value in settings.get("choices", (value,)) else None

    words = iter(argv)
    for word in words:
        if word.startswith("-"):
            name, joined, word = word.partition("=")
            settings = arguments.get(name)
            if settings is None:
                return None
            if settings.get("action") == "store_true":
                value = None if joined else True
            else:
                word = word if joined else next(words, "-")  # a missing value reads as "-"
                value = None if word.startswith("--" if joined else "-") else convert(settings, word)
            optioned = values["subcommand"] is not None
        elif values["subcommand"] is None:
            if word not in SUBCOMMANDS:
                return None
            values["subcommand"], (_, values["run"], arguments) = word, SUBCOMMANDS[word]
            positionals = [name for name in arguments if not name.startswith("-")]
            continue
        elif not positionals or optioned and arguments[positionals[0]].get("nargs") == "?":
            return None
        else:
            name = positionals.pop(0)
            settings = arguments[name]
            value = convert(settings, word)
        if value is None:
            return None
        values[settings.get("dest", name.lstrip("-"))] = value
    if values["subcommand"] is None and not values.get("version"):
        return None
    for name, settings in {**OPTIONS, **arguments}.items():
        dest = settings.get("dest", name.lstrip("-"))
        if dest not in values:
            if settings.get("required") or name in positionals and settings.get("nargs") != "?":
                return None
            values[dest] = settings.get("default", False if "action" in settings else None)
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    args = _read(sys.argv[1:] if argv is None else argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        if not (args.version or args.subcommand):
            parser.print_usage(sys.stderr)
            return 2
    if args.version:
        print(f"kproj {__version__} (format {FORMAT_VERSION})")
        return 0
    try:
        # argparse reads "--opt=--" as an empty list, not as the text "--"
        if [] in vars(args).values():
            raise ValueError("'--' is not an option value")
        inputs, result = args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ktheory.FalseVerdictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.format == "machine":
        import json  # here, not at the top: --version and human reports never load json

        print(json.dumps({"format_version": FORMAT_VERSION, "command": args.subcommand,
                          "inputs": inputs, "result": result}, indent=2, sort_keys=True))
    else:
        print(_render_human(result))
    return 3 if result.get("certificates", {}).get("certified") is False else 0


def main_entry():
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # writing stdout failed: a closed pipe is reported in the exit status
        # only, any other error (a full disk, say) in one line.  What is left
        # goes to devnull, so that the flush at exit cannot fail again
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    finally:
        # the process is ending, so a full collection of everything it holds is
        # wasted work: frozen objects are skipped by the collection at shutdown
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
