"""The checked replay of the induction for CP^n, which the trace subcommand prints.

Every extension step is materialised as an explicit five-term window of
integer matrices, run through the exactness and Five Lemma checkers of
homology, and recorded in a machine-checkable trace.  The K-groups
themselves come from the certified induction of the private _certify
(see ktheory.k_groups); this replay is kept apart so that only a process
that prints it compiles it.  ktheory re-exports InductionStep,
InductionTrace and replay_induction on first read.
"""

from __future__ import annotations

from . import _groups, _record, homology, ktheory, linalg
from ._record import Record


class InductionStep(Record):
    """One checked step of the induction, as recorded in the trace."""

    _fields = ("index", "kind", "stage", "window", "rules", "exactness", "five_lemma",
               "conclusion")

    def __init__(self, index: int, kind: str, stage: int, window: tuple[str, ...],
                 rules: tuple[str, ...], exactness: tuple[bool, ...], five_lemma: bool | None,
                 conclusion: str):
        super().__init__(index, kind, stage, window, rules, exactness, five_lemma, conclusion)


class InductionTrace(Record):
    """Machine-checkable record of the replayed induction."""

    _fields = ("n", "steps", "reduced_k0", "k0", "k1")


def _inclusion_window(sub: _groups.FgAbelianGroup, middle: _groups.FgAbelianGroup,
                      quot: _groups.FgAbelianGroup,
                      tail: _groups.FgAbelianGroup) -> homology.GroupSequence:
    """The five-term window 0 -> sub -> middle -> quot -> tail.

    The middle group is the splitting conclusion, checked as it stands:
    inclusion hits the first coordinates of sub + quot and the quotient
    map reads off the last, so a middle of any other size fails the shape
    check.
    """
    a, b = sub.element_length(), quot.element_length()
    incl = linalg.IntegerMatrix._make(a + b, a,
                                      linalg.IntegerMatrix.identity(a).entries + (0,) * (a * b))
    proj = linalg.IntegerMatrix.zero(b, a).hstack(linalg.IntegerMatrix.identity(b))
    maps = (
        linalg.IntegerMatrix.zero(a, 0),
        incl,
        proj,
        linalg.IntegerMatrix.zero(tail.element_length(), b),
    )
    return homology.GroupSequence((_groups.FgAbelianGroup.trivial(), sub, middle, quot, tail),
                                  maps)


def _vanishing_window(left: _groups.FgAbelianGroup, middle: _groups.FgAbelianGroup,
                      right: _groups.FgAbelianGroup) -> homology.GroupSequence:
    """The window left -> 0 -> middle -> 0 -> right with zero maps."""
    zero = _groups.FgAbelianGroup.trivial()
    maps = (
        linalg.IntegerMatrix.zero(0, left.element_length()),
        linalg.IntegerMatrix.zero(middle.element_length(), 0),
        linalg.IntegerMatrix.zero(0, middle.element_length()),
        linalg.IntegerMatrix.zero(right.element_length(), 0),
    )
    return homology.GroupSequence((left, zero, middle, zero, right), maps)


def _identity_ladder(window: homology.GroupSequence) -> homology.Ladder:
    verticals = tuple(linalg.IntegerMatrix.identity(g.element_length()) for g in window.groups)
    return homology.Ladder(window, window, verticals)


def _check_window(window: homology.GroupSequence) -> tuple[tuple[bool, ...], bool | None]:
    # exactness is a hypothesis of the Five Lemma: a window without it gets no Five Lemma verdict
    exact = tuple(homology.is_exact_at(window, i) for i in (1, 2, 3))
    verdict = homology.five_lemma_check(_identity_ladder(window)) if all(exact) else None
    return exact, verdict


def replay_induction(n: int) -> InductionTrace:
    """Replay the inductive computation of the K-groups of CP^n.

    Every extension step is materialised as an explicit five-term window,
    passed through the exactness checker, and mirrored into a Five Lemma
    ladder; the verdicts land in the trace.  The sphere inputs are marked
    as axiom-table uses.  The final unreduced group in degree 0 adds the
    basepoint summand through the same splitting rule.  The stages run
    bottom-up in a loop, so a deep n needs no deep stack.
    """
    _record.check_int(n, "the induction starts at n = 1", 1)
    prev_reduced = ktheory.reduced_sphere_k(2)
    prev_k1 = ktheory.reduced_sphere_k(3)
    steps = [InductionStep(
        index=0,
        kind="base",
        stage=1,
        window=(
            f"reduced K(CP^1) = reduced K(S^2) = {prev_reduced.render()}",
            f"K^1(CP^1) = reduced K(S^3) = {prev_k1.render()}",
        ),
        rules=("projective-line-is-2-sphere", "sphere-axiom-table"),
        exactness=(),
        five_lemma=None,
        conclusion=f"reduced K = {prev_reduced.render()}, K^1 = {prev_k1.render()}",
    )]
    for k in range(1, n):
        # degree-0 window: 0 -> Z^k -> middle -> Z -> (suspension tail)
        quot = ktheory.reduced_sphere_k(2 * k + 2)
        middle = homology.split_free_extension(prev_reduced, quot)
        window0 = _inclusion_window(prev_reduced, middle, quot, prev_k1)
        exact0, verdict0 = _check_window(window0)
        step0 = InductionStep(
            index=len(steps),
            kind="k0-extension",
            stage=k,
            window=tuple(g.render() for g in window0.groups),
            rules=(
                f"inductive-hypothesis: reduced K(CP^{k}) = {prev_reduced.render()}",
                f"sphere-axiom-table: reduced K(S^{2 * k + 2}) = {quot.render()}",
                f"suspension-tail: K^1(CP^{k}) = {prev_k1.render()}",
                "split-free-extension",
            ),
            exactness=exact0,
            five_lemma=verdict0,
            conclusion=f"reduced K(CP^{k + 1}) = {middle.render()}",
        )

        # degree-1 window: Z -> 0 -> middle -> 0 -> Z^(k+1), middle pinched to 0
        prev_k0 = homology.split_free_extension(prev_reduced, _groups.FgAbelianGroup.free(1))
        new_k1 = _groups.FgAbelianGroup.trivial()
        window1 = _vanishing_window(quot, new_k1, prev_k0)
        exact1, verdict1 = _check_window(window1)
        step1 = InductionStep(
            index=len(steps) + 1,
            kind="k1-vanishing",
            stage=k,
            window=tuple(g.render() for g in window1.groups),
            rules=(
                f"inductive-hypothesis: K^1(CP^{k}) = {prev_k1.render()}",
                f"sphere-axiom-table: K^1(S^{2 * k + 2}) = reduced K(S^{2 * k + 3}) = 0",
                "periodicity: degree -1 equals degree 1",
                "pinched-between-zeros",
            ),
            exactness=exact1,
            five_lemma=verdict1,
            conclusion=f"K^1(CP^{k + 1}) = {new_k1.render()}",
        )

        steps += (step0, step1)
        prev_reduced, prev_k1 = middle, new_k1
    k0 = homology.split_free_extension(prev_reduced, _groups.FgAbelianGroup.free(1))
    steps.append(InductionStep(
        index=len(steps),
        kind="unreduced-assembly",
        stage=n,
        window=(prev_reduced.render(), "Z", k0.render()),
        rules=("basepoint-splitting: K = reduced K + Z",),
        exactness=(),
        five_lemma=None,
        conclusion=f"K^0(CP^{n}) = {k0.render()}, K^1(CP^{n}) = {prev_k1.render()}",
    ))
    return InductionTrace(n, tuple(steps), prev_reduced, k0, prev_k1)
