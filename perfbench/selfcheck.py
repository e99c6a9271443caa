"""Fast self-check of the benchmark (a few seconds).

    python3 perfbench/selfcheck.py

1. A tiny run of each workload, untraced and traced, prints every metric
   that BENCHMARK.json names, with the unit it names.
2. The witness check is not vacuous: a witness with one exponent flipped,
   a swapped conjugator, a foreign target or a foreign element is flagged,
   and the untouched witness passes.
3. Failures are counted, never raised: an exception inside an operation
   comes back as a failed operation, and the one certified Unreachable
   (order 3 in SL(2,2)) as a success.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from checks import witness_problem  # noqa: E402
from inputs import make_inputs  # noqa: E402
from invword import (GroupSpec, Mat, Witness,  # noqa: E402
                     construct_involution, make_field)
from worker import Pass, run_sl  # noqa: E402

TINY_CELLS = {(2, 5), (2, 7), (2, 2), (3, 3), (4, 3)}
TINY_QUERIES = {"bounds", "orbdiam"}


def tiny_items(workload):
    items, _ = make_inputs(workload, 0)
    if workload == "sl-classes":
        picked = [it for it in items if (it["n"], it["q"]) in TINY_CELLS]
        return picked[:24]
    if workload == "sl-random":
        return [it for it in items if it["n"] <= 5][:12]
    return [it for it in items if it["kind"] in TINY_QUERIES
            or (it["kind"] == "witness_dist" and it["n"] <= 6)]


def check_metrics(problems):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        items = tiny_items(workload)
        untraced = run.run_pass(workload, items)
        traced = run.run_pass(workload, items, trace=True)
        got = {0: run.end_to_end([untraced], 0.05),
               1: run.per_layer(untraced, traced)}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for m in spec[key]:
                if m["name"] not in got[trace]:
                    problems.append("%s trace %d: no %s" % (
                        workload, trace, m["name"]))
                elif got[trace][m["name"]][1] != m["unit"]:
                    problems.append("%s: %s has unit %r, not %r" % (
                        workload, m["name"], got[trace][m["name"]][1],
                        m["unit"]))
            extra = set(got[trace]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s trace %d: unlisted metrics %s" % (
                    workload, trace, sorted(extra)))
        for p in (untraced, traced):
            if p["wrong"] or len(p["ops"]) != len(items):
                problems.append("%s: tiny pass not clean: %r" % (
                    workload, p["failures"]))


def check_tamper(problems):
    ctx = make_field(5)
    spec = GroupSpec("SL", 2, 5)
    g = Mat(ctx, [[2, 1], [0, 3]])
    w = construct_involution(g, spec)
    if witness_problem(w, g) is not None:
        problems.append("valid witness flagged: %s" % witness_problem(w, g))
    steps = [(s.c, s.e, s.case) for s in w.steps]
    other = Mat(ctx, [[1, 1], [0, 1]])
    flip = list(steps)
    flip[0] = (flip[0][0], -flip[0][1], flip[0][2])
    swap = list(steps)
    swap[-1] = (other, swap[-1][1], swap[-1][2])
    tampered = {
        "exponent flipped": (Witness(spec, g, flip, w.target), g),
        "conjugator swapped": (Witness(spec, g, swap, w.target), g),
        "target replaced": (Witness(spec, g, steps, other), g),
        "element replaced": (w, other),
    }
    for what, (bad, elem) in tampered.items():
        if witness_problem(bad, elem) is None:
            problems.append("tampered witness passed: %s" % what)


def check_failures_counted(problems):
    ctx2, ctx5 = make_field(2), make_field(5)
    cases = [
        # (element, spec, expected failure?)
        (Mat(ctx2, [[0, 1], [1, 1]]), GroupSpec("SL", 2, 2), False),
        (Mat(ctx5, [[4, 0], [0, 4]]), GroupSpec("SL", 2, 5), True),
        (Mat(ctx5, [[2, 0], [0, 2]]), GroupSpec("SL", 2, 5), True),
    ]
    for i, (g, spec, expect_fail) in enumerate(cases):
        acc = Pass()
        run_sl({"id": i}, (g, spec), acc)
        failed = acc.ops[0][1] is not None
        if failed != expect_fail:
            problems.append("case %d: failed=%s, expected %s (%r)" % (
                i, failed, expect_fail, acc.failures))


def main():
    problems = []
    check_tamper(problems)
    check_failures_counted(problems)
    check_metrics(problems)
    for p in problems:
        print("selfcheck: FAIL %s" % p)
    if problems:
        return 1
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
