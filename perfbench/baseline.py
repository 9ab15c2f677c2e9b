"""Re-measure the ROADMAP baseline rows that fall inside the workload ranges.

    python3 perfbench/baseline.py [--repeats 5] [--out perfbench/baseline.json]

Each figure is the median of --repeats fresh processes, written beside
the figure the ROADMAP baseline table quotes.  Rows: interpreter start
plus `import kproj`, `kproj kgroups cpn:3` end to end, cold
replay_induction(n) at n = 10 and 50, the replay's scaling exponent over
an n-sweep, and the 60x60 Smith job with entries in [-9, 9] (in-process
and as a CLI job, with the digit counts of d and of u/v).
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from layers import loglog_slope
from run import LAUNCH, SRC, kproj_cmd

SWEEP = (8, 16, 24, 32, 48, 64)

# in a fresh process: time one cold call and print JSON
REPLAY_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from kproj import replay_induction
start = time.perf_counter()
replay_induction(int(sys.argv[2]))
print(json.dumps({"seconds": time.perf_counter() - start}))
"""

SMITH_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from kproj import IntegerMatrix, smith_normal_form
with open(sys.argv[2], encoding="utf-8") as handle:
    matrix = IntegerMatrix.from_text(handle.read())
start = time.perf_counter()
form = smith_normal_form(matrix)
seconds = time.perf_counter() - start
digits = lambda values: max(len(str(abs(v))) for v in values)
print(json.dumps({"seconds": seconds, "d_digits": digits(form.d),
                  "uv_digits": max(digits(form.u.entries), digits(form.v.entries))}))
"""


def wall(cmd: list[str]) -> float:
    start = perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def probe(code: str, *args: str) -> dict:
    out = subprocess.run([sys.executable, "-c", code, str(SRC), *args], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def median_of(repeats: int, fn) -> float:
    return statistics.median(fn() for _ in range(repeats))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=str(Path(__file__).with_name("baseline.json")))
    args = parser.parse_args()
    r = args.repeats

    import_s = median_of(r, lambda: wall([sys.executable, "-c", LAUNCH, str(SRC), "--version"]))
    kgroups_s = median_of(r, lambda: wall(kproj_cmd(["kgroups", "cpn:3"])))
    sweep = {n: median_of(r, lambda n=n: probe(REPLAY_PROBE, str(n))["seconds"]) for n in SWEEP}
    cold = {n: median_of(r, lambda n=n: probe(REPLAY_PROBE, str(n))["seconds"]) for n in (10, 50)}

    rng = random.Random(60)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m60.matrix"
        path.write_text("60 60\n" + "".join(
            " ".join(str(rng.randint(-9, 9)) for _ in range(60)) + "\n" for _ in range(60)),
            encoding="utf-8")
        smith_runs = [probe(SMITH_PROBE, str(path)) for _ in range(r)]
        smith_job_s = median_of(r, lambda: wall(kproj_cmd(["smith", "--matrix", str(path)])))

    rows = [
        {"case": "interpreter start + import kproj (kproj --version)",
         "roadmap": "0.15 s", "measured_s": import_s},
        {"case": "kproj kgroups cpn:3, end to end", "roadmap": "0.19 s", "measured_s": kgroups_s},
        {"case": "replay_induction(10), cold", "roadmap": "0.06 s", "measured_s": cold[10]},
        {"case": "replay_induction(50), cold", "roadmap": "1.4 s", "measured_s": cold[50]},
        {"case": f"replay_induction exponent over n = {list(SWEEP)}", "roadmap": "about 3.3",
         "measured": loglog_slope(sweep.items()),
         "sweep_s": {str(n): s for n, s in sweep.items()}},
        {"case": "smith_normal_form, 60x60, entries in [-9, 9], in-process",
         "roadmap": "0.3-0.5 s; u/v ~1700 digits; largest invariant factor 86 digits",
         "measured_s": statistics.median(x["seconds"] for x in smith_runs),
         "d_digits": smith_runs[0]["d_digits"], "uv_digits": smith_runs[0]["uv_digits"]},
        {"case": "kproj smith --matrix, 60x60, entries in [-9, 9], end to end",
         "roadmap": "1.13 s", "measured_s": smith_job_s},
    ]
    doc = {
        "machine": {"cpu": cpu_model(), "python": platform.python_version(),
                    "system": platform.system()},
        "repeats": r,
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for row in rows:
        value = row.get("measured_s", row.get("measured"))
        print(f"{row['case']}: {value:.4g} (ROADMAP: {row['roadmap']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
