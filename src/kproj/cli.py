"""Batch command-line front end.

Every subcommand prints either a human-readable report (the default) or a
machine-readable JSON document selected with --format machine.  Each
subcommand is a private module of kproj._commands, which main imports
only to run that subcommand, so a process compiles no other command's
code.  Its run returns the echo of its inputs and a result payload that
json writes as it is; its report renders the payload, and the machine
document is the one object {format_version, command, inputs,
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
from importlib import import_module
from types import SimpleNamespace

from . import __version__, ktheory

FORMAT_VERSION = "1"


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
# each subcommand is (help, its module in kproj._commands, arguments)
SUBCOMMANDS = {
    "cohomology": ("integral cohomology of a space", "cohomology", {
        "space": {"help": SPACE_HELP},
        "--degree": {"type": int, "default": None},
    }),
    "kgroups": ("K-group of a space in one degree", "kgroups", {
        "space": {"help": SPACE_HELP},
        "--q": {"type": int, "default": 0},
    }),
    "ring": ("the virtual-bundle ring on cpn:N", "ring", {
        "n": {"type": int},
    }),
    "ch": ("Chern character of a class or formal bundle", "ch", {
        "space": {"nargs": "?", "default": None,
                  "help": "ambient space cpn:N for the class form"},
        "--class": {"dest": "klass", "default": None,
                    "help": "comma-separated coefficients against 1, γ, .., γ^n"},
        "--rank": {"type": int, "default": None, "help": "bundle rank (bundle form)"},
        "--chern": {"default": None,
                    "help": "total Chern class, e.g. \"1+2x+x^2\" (bundle form)"},
        "--order": {"type": int, "default": None, "help": "truncation order (bundle form)"},
    }),
    "trace": ("replay the K-group induction for cpn:N", "trace", {
        "n": {"type": int},
        "--certificates": {"action": "store_true",
                           "help": "add the certified induction: per stage its window, maps, "
                                   "splittings and verdicts"},
    }),
    "newton": ("Newton polynomial s_k", "newton", {
        "--k": {"type": int, "required": True},
    }),
    "groth": ("group completion of a Cayley-table monoid", "groth", {
        "--table": {"required": True, "help": "Cayley table file"},
    }),
    "smith": ("Smith normal form of a matrix file", "smith", {
        "--matrix": {"required": True,
                     "help": "matrix file: first line 'rows cols', then entries"},
    }),
    "bott-check": ("periodicity instance on the 2-sphere", "bott_check", {}),
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
    for name, (help_, _, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, settings in arguments.items():
            p.add_argument(flag, **settings)
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
            values["subcommand"], (_, _, arguments) = word, SUBCOMMANDS[word]
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
    command = import_module(f"{__package__}._commands.{SUBCOMMANDS[args.subcommand][1]}")
    try:
        # argparse reads "--opt=--" as an empty list, not as the text "--"
        if [] in vars(args).values():
            raise ValueError("'--' is not an option value")
        inputs, result = command.run(args)
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
        print(command.report(result))
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
