"""Seeded job lists for the kproj CLI benchmark, with independent output checks.

Each workload turns a seed into a fixed list of CLI jobs.  A job is the
argument vector the `kproj` command receives, a size parameter (used for
the scaling fits), and a check that reads the job's machine document and
returns None when it is right or a one-line reason when it is not.

The checks never call kproj: expected values come from the closed-form
mathematics (the K-groups of CP^N, Stirling numbers, Newton's identities)
or from the small exact routines in this file (gcd, fraction-free
elimination, cyclic-group arithmetic).  All inputs, argument lists and
files alike, are produced here before any timing starts.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("replay", "dense_smith", "ring_ch", "completion")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    size: int
    check: Callable[[dict], "str | None"]

    def label(self) -> str:
        return " ".join(self.argv)


def stratified(rng: random.Random, lo: float, hi: float, count: int,
               log: bool = False) -> list[int]:
    """`count` integers spread over [lo, hi], uniform or log-uniform.

    The range is cut into count // 2 equal strata and each stratum gets an
    antithetic pair (v, 1 - v); an odd count adds the midpoint of the
    range.  The total cost of a job list and its median job then barely
    depend on the seed, which keeps the metrics comparable across seeds.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    strata = count // 2
    points = [0.5] if count % 2 else []
    for k in range(strata):
        v = rng.random()
        points += [(k + v) / strata, (k + 1 - v) / strata]
    return [round(math.exp(a + u * (b - a)) if log else a + u * (b - a)) for u in points]


def _fail_unless(condition: bool, reason: str) -> "str | None":
    return None if condition else reason


# ----------------------------------------------------------------------
# replay: trace N and kgroups cpn:N
# ----------------------------------------------------------------------


def _check_trace(n: int):
    def check(doc: dict) -> "str | None":
        r = doc["result"]
        steps = r["steps"]
        if len(steps) != 2 * n:
            return f"trace {n}: {len(steps)} steps, expected {2 * n}"
        windows = [s for s in steps if s["exactness"]]
        if len(windows) != 2 * (n - 1):
            return f"trace {n}: {len(windows)} checked windows, expected {2 * (n - 1)}"
        if not all(all(s["exactness"]) and s["five_lemma"] is True for s in windows):
            return f"trace {n}: a window verdict is false"
        if (r["k0"]["free_rank"], r["k0"]["torsion"]) != (n + 1, []):
            return f"trace {n}: K^0 = {r['k0']['text']}"
        return _fail_unless((r["k1"]["free_rank"], r["k1"]["torsion"]) == (0, []),
                            f"trace {n}: K^1 = {r['k1']['text']}")
    return check


def _check_kgroup(n: int, q: int):
    rank = n + 1 if q % 2 == 0 else 0

    def check(doc: dict) -> "str | None":
        r = doc["result"]
        return _fail_unless((r["free_rank"], r["torsion"]) == (rank, []),
                            f"K^{q}(CP^{n}) = {r['text']}, expected rank {rank}")
    return check


def golden_trace_check(golden_path: Path):
    """Check for `trace 2` against the committed golden trace."""
    golden = json.loads(golden_path.read_text(encoding="utf-8"))

    def check(doc: dict) -> "str | None":
        body = {k: v for k, v in doc["result"].items() if k != "kind"}
        return _fail_unless(body == golden, "trace 2 differs from the golden trace")
    return check


def _replay_job(n: int, q: "int | None") -> Job:
    if q is None:
        return Job(("trace", str(n)), n, _check_trace(n))
    return Job(("kgroups", f"cpn:{n}", "--q", str(q)), n, _check_kgroup(n, q))


def replay_jobs(rng: random.Random, workdir: Path, tiny: bool) -> list[Job]:
    # The midpoint N is the median job.  It runs in all three forms, which
    # cost the same, so each pass gives job_p50_s three samples of it rather
    # than one; the strata put as many jobs below it as above.
    middle, sizes = (4, stratified(rng, 2, 6, 4)) if tiny else \
        (16, stratified(rng, 4, 64, 12, log=True))
    jobs = [_replay_job(middle, q) for q in (None, 0, 1)]
    jobs += [_replay_job(n, rng.choice((None, 0, 1))) for n in sizes]
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# dense_smith: smith --matrix FILE
# ----------------------------------------------------------------------


def elimination(rows: list[list[int]]) -> tuple[int, int]:
    """(rank, determinant) by fraction-free Gaussian elimination.

    The determinant is the Bareiss one for a square matrix and 0 for any
    other shape or a singular matrix; the rank is exact for every shape.
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank, prev, sign, col = 0, 1, 1, 0
    while rank < nrows and col < ncols:
        pivot = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot is None:
            col += 1
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        p = m[rank][col]
        for i in range(rank + 1, nrows):
            a = m[i][col]
            row_i, row_r = m[i], m[rank]
            for j in range(col + 1, ncols):
                row_i[j] = (row_i[j] * p - a * row_r[j]) // prev
            row_i[col] = 0
        prev = p
        rank += 1
        col += 1
    square = nrows == ncols
    det = sign * m[nrows - 1][ncols - 1] if square and rank == nrows and nrows else 0
    return rank, det


def _check_smith(rows: list[list[int]]):
    nrows, ncols = len(rows), len(rows[0])
    rank, det = elimination(rows)
    g = math.gcd(*(e for r in rows for e in r))

    def check(doc: dict) -> "str | None":
        r = doc["result"]
        d = r["d"]
        if r["rank"] != rank or len(d) != rank:
            return f"smith {nrows}x{ncols}: rank {r['rank']}, expected {rank}"
        if any(x <= 0 for x in d) or any(b % a for a, b in zip(d, d[1:])):
            return f"smith {nrows}x{ncols}: invariant factors break the divisibility chain"
        if d and d[0] != g:
            return f"smith {nrows}x{ncols}: d[0] = {d[0]}, gcd of entries = {g}"
        if det and math.prod(d) != abs(det):
            return f"smith {nrows}x{ncols}: product of d differs from |det|"
        coker = r["cokernel"]
        return _fail_unless(
            (coker["free_rank"], coker["torsion"]) == (ncols - rank, [x for x in d if x > 1]),
            f"smith {nrows}x{ncols}: cokernel {coker['text']} disagrees with d")
    return check


def _random_rows(rng: random.Random, nrows: int, ncols: int, bound: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


def _rank_deficient(rng: random.Random, side: int, bound: int) -> list[list[int]]:
    """Square matrix whose last rows are sums or differences of earlier rows."""
    dependent = max(1, side // 6)
    rows = _random_rows(rng, side - dependent, side, bound)
    for _ in range(dependent):
        a, b = rng.sample(range(len(rows)), 2)
        s = rng.choice((1, -1))
        rows.append([x + s * y for x, y in zip(rows[a], rows[b])])
    rng.shuffle(rows)
    return rows


# (shape, rows, cols); every shape is run with both entry bounds
SMITH_SHAPES = (
    ("square", 20, 20), ("square", 40, 40), ("square", 60, 60),
    ("tall", 40, 20), ("tall", 60, 40),
    ("wide", 20, 40), ("wide", 40, 60),
    ("deficient", 30, 30), ("deficient", 45, 45),
)
TINY_SMITH_SHAPES = (("square", 4, 4), ("tall", 5, 3), ("wide", 3, 5), ("deficient", 5, 5))


# The small-entry 40x40 square costs the median of the list.  It runs on
# three seeded matrices, so each pass gives job_p50_s three samples of it
# (with eight cheaper jobs below and nine dearer ones above) rather than
# leaving the median between two jobs of different cost.
MEDIAN_SMITH = ("square", 40, 40, 9)


def dense_smith_jobs(rng: random.Random, workdir: Path, tiny: bool) -> list[Job]:
    specs = [(shape, nrows, ncols, bound)
             for shape, nrows, ncols in (TINY_SMITH_SHAPES if tiny else SMITH_SHAPES)
             for bound in (9, 1000)]
    if not tiny:
        specs += [MEDIAN_SMITH] * 2
    jobs = []
    for index, (shape, nrows, ncols, bound) in enumerate(specs):
        if shape == "deficient":
            rows = _rank_deficient(rng, nrows, bound)
        else:
            rows = _random_rows(rng, nrows, ncols, bound)
        path = workdir / f"smith-{index}-{shape}-{nrows}x{ncols}-{bound}.matrix"
        path.write_text(f"{nrows} {ncols}\n"
                        + "".join(" ".join(map(str, r)) + "\n" for r in rows),
                        encoding="utf-8")
        jobs.append(Job(("smith", "--matrix", str(path)), max(nrows, ncols),
                        _check_smith(rows)))
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# ring_ch: ring N, ch cpn:N --class=..., ch --rank/--chern/--order, newton
# ----------------------------------------------------------------------


def _gamma_name(k: int) -> str:
    return "1" if k == 0 else "γ" if k == 1 else f"γ^{k}"


def _check_ring(n: int):
    def check(doc: dict) -> "str | None":
        r = doc["result"]
        expected = [[_gamma_name(i + j) if i + j <= n else "0" for j in range(n + 1)]
                    for i in range(n + 1)]
        if r["basis"] != [_gamma_name(k) for k in range(n + 1)]:
            return f"ring {n}: wrong basis"
        return _fail_unless(r["products"] == expected,
                            f"ring {n}: a product is not γ^(i+j) or 0")
    return check


def stirling2(n: int) -> list[list[int]]:
    """S[m][k], Stirling numbers of the second kind for 0 <= k <= m <= n."""
    s = [[0] * (n + 1) for _ in range(n + 1)]
    s[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            s[m][k] = k * s[m - 1][k] + s[m - 1][k - 1]
    return s


def class_character(coeffs: list[int]) -> list[Fraction]:
    """ch of sum c_k γ^k on CP^n: (e^x - 1)^k = sum_m k! S(m, k) x^m / m!."""
    n = len(coeffs) - 1
    s = stirling2(n)
    return [sum((Fraction(c * math.factorial(k) * s[m][k], math.factorial(m))
                 for k, c in enumerate(coeffs) if k <= m), Fraction(0))
            for m in range(n + 1)]


def bundle_character(rank: int, chern: list[int], order: int) -> list[Fraction]:
    """rank + sum p_k/k! x^k, p_k from Newton's identities on the classes."""
    c = chern + [0] * (order + 1 - len(chern))
    p = [rank]
    for k in range(1, order + 1):
        pk = sum((-1) ** (j - 1) * c[j] * p[k - j] for j in range(1, k))
        p.append(pk + (-1) ** (k - 1) * k * c[k])
    return [Fraction(p[k], math.factorial(k)) for k in range(order + 1)]


def _check_poly(expected: list[Fraction], label: str):
    def check(doc: dict) -> "str | None":
        got = [Fraction(c) for c in doc["result"]["coefficients"]]
        return _fail_unless(got == expected, f"{label}: character differs")
    return check


def _chern_text(chern: list[int]) -> str:
    text = "1"
    for j, c in enumerate(chern[1:], start=1):
        if c:
            power = "x" if j == 1 else f"x^{j}"
            text += f"{'+' if c > 0 else '-'}{abs(c)}{power}"
    return text


def elementary_at(roots: list[int], k: int) -> list[int]:
    """e_0 .. e_k of the given roots (zero past the number of roots)."""
    e = [1] + [0] * k
    for r in roots:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * r
    return e


def _check_newton(k: int, root_sets: list[list[int]]):
    def check(doc: dict) -> "str | None":
        terms = [(t["exponents"], Fraction(t["coefficient"])) for t in doc["result"]["terms"]]
        for roots in root_sets:
            e = elementary_at(roots, k)
            value = sum(c * math.prod(e[i + 1] ** x for i, x in enumerate(exps))
                        for exps, c in terms)
            if value != sum(r ** k for r in roots):
                return f"newton {k}: s_{k} is wrong at roots {roots}"
        return None
    return check


def ring_ch_jobs(rng: random.Random, workdir: Path, tiny: bool) -> list[Job]:
    if tiny:
        ring_n, class_n, orders, newton_k = [3, 5], [2, 4], [2, 4], [2, 4]
    else:
        ring_n = stratified(rng, 8, 48, 8)
        class_n = stratified(rng, 4, 64, 6)
        orders = stratified(rng, 4, 16, 6)
        newton_k = stratified(rng, 2, 16, 4)
    jobs = [Job(("ring", str(n)), n, _check_ring(n)) for n in ring_n]
    for n in class_n:
        # the leading coefficient keeps its sign, so it rides on --class=
        coeffs = [rng.randint(-3, 3) for _ in range(n + 1)]
        klass = ",".join(map(str, coeffs))
        jobs.append(Job(("ch", f"cpn:{n}", f"--class={klass}"), n,
                        _check_poly(class_character(coeffs), f"ch cpn:{n}")))
    for order in orders:
        rank = rng.randint(1, order)
        chern = [1] + [rng.randint(-3, 3) for _ in range(rank)]
        jobs.append(Job(("ch", "--rank", str(rank), "--chern", _chern_text(chern),
                         "--order", str(order)), order,
                        _check_poly(bundle_character(rank, chern, order),
                                    f"ch rank {rank} order {order}")))
    for k in newton_k:
        root_sets = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(3)]
        jobs.append(Job(("newton", "--k", str(k)), k, _check_newton(k, root_sets)))
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# completion: groth --table FILE
# ----------------------------------------------------------------------


def invariant_chains(order: int, least: int = 2) -> list[list[int]]:
    """Every chain d1 | d2 | .. | dk with product `order` and d1 >= least."""
    if order == 1:
        return [[]]
    chains = []
    for d in range(least, order + 1):
        if order % d == 0:
            for rest in invariant_chains(order // d, d):
                if all(x % d == 0 for x in rest):
                    chains.append([d] + rest)
    return chains


def _group_elements(chain: list[int]) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(d) for d in chain)))


def _group_add(chain, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, chain))


def _write_table(path: Path, elements: list, add, identity, rng: random.Random):
    """Cayley table of `add` on `elements`, under a seeded relabelling."""
    labels = list(range(len(elements)))
    rng.shuffle(labels)
    index = {e: labels[i] for i, e in enumerate(elements)}
    table = [[0] * len(elements) for _ in elements]
    for a in elements:
        for b in elements:
            table[index[a]][index[b]] = index[add(a, b)]
    path.write_text(f"{len(elements)} {index[identity]}\n"
                    + "".join(" ".join(map(str, r)) + "\n" for r in table),
                    encoding="utf-8")


def _check_completion(torsion: list[int], classes: int, label: str):
    def check(doc: dict) -> "str | None":
        r = doc["result"]
        return _fail_unless(
            (r["free_rank"], r["torsion"], r["classes"]) == (0, torsion, classes),
            f"{label}: completion {r['text']} with {r['classes']} classes, "
            f"expected torsion {torsion} and {classes} classes")
    return check


def completion_jobs(rng: random.Random, workdir: Path, tiny: bool) -> list[Job]:
    jobs = []
    group_orders = (2, 4) if tiny else range(6, 17)
    for order in group_orders:
        chain = rng.choice(invariant_chains(order))
        path = workdir / f"group-{order}.table"
        zero = (0,) * len(chain)
        _write_table(path, _group_elements(chain), lambda a, b: _group_add(chain, a, b),
                     zero, rng)
        jobs.append(Job(("groth", "--table", str(path)), order,
                        _check_completion(chain, order, f"group {chain}")))
    # G with an absorbing element adjoined completes to the trivial group
    for order in ((2,) if tiny else (7, 11)):
        chain = rng.choice(invariant_chains(order))
        elements = _group_elements(chain) + ["z"]

        def add(a, b, chain=chain):
            return "z" if "z" in (a, b) else _group_add(chain, a, b)
        path = workdir / f"absorbing-{order + 1}.table"
        _write_table(path, elements, add, (0,) * len(chain), rng)
        jobs.append(Job(("groth", "--table", str(path)), order + 1,
                        _check_completion([], 1, f"absorbing {chain}")))
    # G x {0, e} with e + e = e completes to G
    for order in ((2,) if tiny else (4, 6)):
        chain = rng.choice(invariant_chains(order))
        elements = [(g, b) for g in _group_elements(chain) for b in (0, 1)]

        def add(a, b, chain=chain):
            return (_group_add(chain, a[0], b[0]), a[1] | b[1])
        path = workdir / f"idempotent-{2 * order}.table"
        _write_table(path, elements, add, ((0,) * len(chain), 0), rng)
        jobs.append(Job(("groth", "--table", str(path)), 2 * order,
                        _check_completion(chain, order, f"idempotent {chain}")))
    rng.shuffle(jobs)
    return jobs


GENERATORS = {
    "replay": replay_jobs,
    "dense_smith": dense_smith_jobs,
    "ring_ch": ring_ch_jobs,
    "completion": completion_jobs,
}


def make_jobs(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Job]:
    """The workload's job list for this seed; files go under workdir."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, workdir, tiny)
