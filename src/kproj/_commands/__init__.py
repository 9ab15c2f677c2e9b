"""The subcommands of kproj.cli, one private module each.

Each module is named as its subcommand, with _ for -, and main imports
that module alone, so a process compiles the code of the one command it
runs.  Each module has

    run(args) -> (inputs, result, verdicts)   the echo of the inputs, the result
        payload, and each verdict as (where, name, holds), named as the report prints it
    report(result) -> str                     the human lines for that result

and reaches the library as modules (ktheory.k_groups(...), never a name
copied out of a module), so that a function rebound on its module, as a
tracer does, is the one a command calls.  The bound that trace and
kgroups share is kept here.
"""

# trace N replays the induction, which grows faster than N^2: end to end,
# 0.17-0.20 s at N = 100 and 0.60-0.73 s at N = 200 (quartiles of 11, no
# bytecode cache) on a shared 2-vCPU x86-64 host under Python 3.11, so N
# stays at most 200 until trace 200 runs in under 0.5 s.  kgroups cpn:N
# certifies the induction instead, O(k) sparse entries at stage k, about N^2
# in all (0.10-0.14 s end to end at N = 200, quartiles of 11 uncached runs;
# 0.04-0.07 s of it certifying, in-process), and keeps the same bound until
# the certificate replaces the replay in trace
REPLAY_MAX_N = 200


def check_induction_size(n: int, induction: str) -> None:
    """ValueError naming the induction that would run, unless N is at most REPLAY_MAX_N."""
    if n > REPLAY_MAX_N:
        raise ValueError(f"{induction} needs N at most {REPLAY_MAX_N}")
