"""kproj trace N [--certificates]: the checked replay of the induction for cpn:N."""

from __future__ import annotations

from .. import _certify, _commands, ktheory


def run(args) -> tuple[dict, dict, tuple]:
    _commands.check_induction_size(args.n, "the induction replay")
    trace = ktheory.replay_induction(args.n)
    verdicts = []
    for step in trace.steps:
        where = f"step {step.index} of the induction replay for CP^{trace.n}"
        verdicts += ((where, "exactness", all(step.exactness)),
                     (where, "five-lemma", step.five_lemma is not False))
    result = {
        "kind": "induction-trace",
        "space": f"cpn:{trace.n}",
        "steps": [{name: getattr(step, name) for name in step._fields} for step in trace.steps],
        "reduced_k0": trace.reduced_k0.payload(),
        "k0": trace.k0.payload(),
        "k1": trace.k1.payload(),
    }
    inputs = {"n": args.n}
    if args.certificates:
        # the human report prints one line per stage: only the machine
        # document writes each stage's maps and splittings
        machine, stages, certified = args.format == "machine", [], []
        for stage in _certify.stages(args.n):
            certified += stage.verdicts()
            stages.append(stage.payload() if machine else {"stage": stage.k, "text": stage.render()})
        verdicts += certified
        inputs["certificates"] = True
        result["certificates"] = {"certified": all(holds for _, _, holds in certified),
                                  "stages": stages}
    return inputs, result, tuple(verdicts)


def report(result: dict) -> str:
    lines = [f"induction replay for {result['space']}"]
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
    return "\n".join(lines)
