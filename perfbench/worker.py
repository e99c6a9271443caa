"""One measured pass of a workload, in a fresh interpreter.

Reads a job from standard input as JSON:
    {"workload", "items", "trace", "spans_path"}
runs the items in order in one closed loop (each operation starts after
the previous one returns), checks every answer, and prints a JSON summary
as the last line of standard output.  Between operations it runs the
speed probe (probe.py); probe time is left out of ``wall_s``.

Every operation's program calls are timed; the benchmark's own check of
each returned witness is timed separately (``verify``) and left out of
operation latency.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import invword  # noqa: E402
from invword import GroupSpec, Perm, make_field, parse_mat  # noqa: E402

from checks import (BOUNDS_EXCEPTIONS, D_INV, D_PROJ_INV,  # noqa: E402
                    route_of, witness_problem)
from probe import Probe  # noqa: E402

clock = time.perf_counter
VERIFY_MIN_S = 0.002


class Pass:
    """Collects per-operation results; ``correct`` turns false when a
    returned answer fails its check (an exception is a failure, not a
    wrong answer)."""

    def __init__(self, repeat_checks=True):
        self.repeat_checks = repeat_checks
        self.ops = []          # [latency s, failure or None]
        self.verify = []       # seconds to check each returned witness
        self.lengths = []
        self.steps = {}
        self.reseeded = 0
        self.wrong = 0
        self.failures = []

    def witness(self, w, g):
        """Check w (a witness for g) independently; returns (verify s,
        problem or None) and records its length and routes.  Untraced, a
        check shorter than VERIFY_MIN_S is repeated until that much time
        has passed and timed as the mean, so sub-millisecond checks are
        not read off a single clock window."""
        t = clock()
        problem = witness_problem(w, g)
        runs = 1
        while self.repeat_checks and clock() - t < VERIFY_MIN_S:
            witness_problem(w, g)
            runs += 1
        verify = clock() - t
        self.verify.append(verify / runs)
        if problem is None:
            self.lengths.append(w.length)
            cases = [s.case for s in w.steps]
            for case in cases:
                route = route_of(case)
                self.steps[route] = self.steps.get(route, 0) + 1
            if any("reseed" in c for c in cases):
                self.reseeded += 1
        return verify, problem

    def record(self, item, latency, failure, wrong=False):
        self.ops.append([latency, failure])
        if failure is not None:
            self.failures.append([item["id"], failure])
        if wrong:
            self.wrong += 1


def _error(e):
    return "%s: %s" % (type(e).__name__, str(e)[:120])


def run_sl(item, obj, acc):
    g, spec = obj
    t = clock()
    try:
        w = invword.construct_involution(g, spec)
    except invword.Unreachable as u:
        latency = clock() - t
        cert = u.certificate or {}
        if (spec.n, spec.q) == (2, 2) and \
                cert.get("involution_classes_in_group") == 1:
            acc.record(item, latency, None)
        else:
            acc.record(item, latency, "unreachable: %s" % u, wrong=True)
        return
    except Exception as e:  # every other exception is a failed operation
        acc.record(item, clock() - t, _error(e))
        return
    latency = clock() - t
    _, problem = acc.witness(w, g)
    acc.record(item, latency, problem, wrong=problem is not None)


def _survey_value(item, obj, acc):
    """Run one oracle query; returns (answer ok, verify seconds, detail)."""
    kind = item["kind"]
    if kind == "d_inv":
        rep = invword.d_inv(invword.build_group(obj))
        key = "%s%d" % (obj.family, obj.q or obj.n)
        return rep.value == D_INV[key], 0.0, "d_inv=%r" % rep.value
    if kind == "d_proj_inv":
        rep = invword.d_proj_inv(invword.build_group(obj))
        key = "%d,%d" % (obj.n, obj.q)
        return rep.value == D_PROJ_INV[key], 0.0, "d=%r" % rep.value
    if kind == "charsum":
        tbl = invword.build_group(obj)
        ct = invword.conjugacy_classes(tbl)
        ctx = tbl.ctx
        minus = tbl.index_of(invword.Mat.scalar(ctx, 2, ctx.neg(1)))
        least = None
        for k in range(ct.n_classes):
            g = tbl.decode(ct.reps[k])
            if g.is_scalar():
                continue
            x = invword.matrix.commutator(g, invword.find_partner(g))
            cnt = invword.class_product_count(tbl, [tbl.index_of(x)] * 6,
                                              minus)
            least = cnt if least is None else min(least, cnt)
        return least is not None and least > 0, 0.0, "least=%r" % least
    if kind == "orbdiam":
        rep = invword.orbital_diameter_report()
        return rep.ok and rep.d_t == 3, 0.0, repr(rep)
    if kind == "bounds":
        _, exceptions = invword.scan(obj)
        want = BOUNDS_EXCEPTIONS[obj]
        ok = (exceptions <= want) if obj == "o" else (exceptions == want)
        return ok, 0.0, "exceptions=%s" % sorted(exceptions)
    if kind == "witness_dist":
        spec, reps = obj
        tbl = invword.build_group(spec)
        if spec.family == "Alt":
            targets = invword.oracle.involution_indices(tbl)
        else:
            targets = invword.oracle.projective_involution_indices(tbl)
        verify = 0.0
        for g in reps:
            w = invword.construct_involution(g, spec)
            v, problem = acc.witness(w, g)
            verify += v
            if problem is not None:
                return False, verify, problem
            d = invword.dist_to_set(tbl, tbl.index_of(g), targets)
            if d is None or w.length < d:
                return False, verify, "length %d < distance %r" % (
                    w.length, d)
            if isinstance(g, Perm) and g.n == 5 and g.cycle_type() == (5,):
                cert = getattr(w, "certificate", None) or {}
                if w.length != 3 or cert.get("no_witness_of_length") != 2:
                    return False, verify, "a5 certificate"
        return True, verify, "%d reps" % len(reps)
    raise ValueError("unknown query kind %r" % kind)


def run_survey(item, obj, acc):
    t = clock()
    try:
        ok, verify, detail = _survey_value(item, obj, acc)
    except Exception as e:  # every exception is a failed operation
        acc.record(item, clock() - t, _error(e))
        return
    latency = clock() - t - verify
    if ok:
        acc.record(item, latency, None)
    else:
        acc.record(item, latency, "%s: %s" % (item["kind"], detail),
                   wrong=True)


def parse_item(item):
    kind = item["kind"]
    if kind == "sl":
        ctx = make_field(item["q"])
        return parse_mat(ctx, item["g"]), GroupSpec("SL", item["n"], item["q"])
    if kind == "d_inv":
        if item["family"] == "Alt":
            return GroupSpec("Alt", item["n"])
        return GroupSpec("PSL", item["n"], item["q"])
    if kind == "d_proj_inv":
        return GroupSpec("SL", item["n"], item["q"])
    if kind == "charsum":
        return GroupSpec("SL", 2, item["q"])
    if kind == "bounds":
        return item["family"]
    if kind == "witness_dist":
        if item["family"] == "Alt":
            n = item["n"]
            return (GroupSpec("Alt", n),
                    [Perm.from_cycles(r, n) for r in item["reps"]])
        ctx = make_field(item["q"])
        return (GroupSpec("SL", item["n"], item["q"]),
                [parse_mat(ctx, r) for r in item["reps"]])
    return None


def main():
    job = json.loads(sys.stdin.read())
    items = job["items"]
    parsed = [parse_item(it) for it in items]
    run = run_sl if job["workload"].startswith("sl-") else run_survey
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    acc = Pass(repeat_checks=tracer is None)
    probe = Probe()
    start = clock()
    for item, obj in zip(items, parsed):
        if tracer is not None:
            tracer.op = item["id"]
        t = clock()
        run(item, obj, acc)
        probe.after(clock() - t)
    wall = clock() - start - probe.total_s()
    out = {
        "wall_s": wall,
        "probe_s": probe.samples,
        "ops": acc.ops,
        "verify": acc.verify,
        "lengths": acc.lengths,
        "steps": acc.steps,
        "reseeded": acc.reseeded,
        "wrong": acc.wrong,
        "failures": acc.failures[:50],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["in_package_s"] = tracer.in_package_s()
        out["n_spans"] = tracer.n_spans()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
