"""Traced stand-in for the `kproj` console script.

    python3 shim.py SRC_DIR SPANS_FILE -- KPROJ_ARGS...

Imports kproj from SRC_DIR, wraps the functions in layers.TARGETS from
outside the package, runs the CLI on KPROJ_ARGS exactly as the console
script would, and at exit writes the recorded spans to SPANS_FILE as JSON.
Each job runs in its own process, so lru_cache state matches a plain CLI
run.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

from layers import EXTRAS, TARGETS


class Recorder:
    """Spans of one job, kept in memory until the process ends."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        extra_of = EXTRAS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_start = perf_counter()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                extra = extra_of(args, result) if ok and extra_of else None
                spans[idx] = (name_id, start, end, parent, perf_counter() - outer_start, extra)
        return traced


def install(recorder: Recorder) -> None:
    """Wrap every target and rebind each module's copy of a wrapped function.

    `from .linalg import ...` copies names into homology, ktheory and cli,
    so every kproj module that holds the original object gets the wrapper.
    Modules are reached through sys.modules because the package attribute
    `kproj.homology` is the re-exported function, not the module.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "kproj" or name.startswith("kproj.")]
    for module_name, path, span_name in TARGETS:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        traced = recorder.wrap(span_name, original)
        if isinstance(owner, type):
            # aliases such as __rmul__ = __mul__ share the function object
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, traced)
        else:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def main() -> int:
    src, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: shim.py SRC_DIR SPANS_FILE -- KPROJ_ARGS...")
    start = perf_counter()
    sys.path.insert(0, src)
    import kproj.cli
    import_s = perf_counter() - start

    recorder = Recorder()
    install(recorder)
    newton = sys.modules["kproj.chern"].newton_s.__wrapped__
    code = 1
    try:
        code = kproj.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        info = newton.cache_info()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "names": recorder.names,
                       "spans": recorder.spans, "newton_cache": [info.hits, info.misses]},
                      handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
