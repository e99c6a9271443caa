"""Benchmark entry point for invword.

    python3 perfbench/run.py --workload sl-classes --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):
  sl-classes     every non-central class of the acceptance grid and the
                 excluded pairs, each disguised by a random conjugation
  sl-random      uniform random non-central elements of SL(n, q), n = 4..9
  oracle-survey  the 31 oracle queries behind acceptance criteria 2, 4-8
  all            each of the above in turn (the default)

Each pass over a workload's inputs runs in a fresh interpreter
(perfbench/worker.py) with one caller in a closed loop, so the program's
lazily filled caches start empty and their fills are timed inside the
operations.  A run makes one pass, then more passes while another one
still fits in ``--seconds``; the end-to-end metrics are medians over
passes.  On a 2-core Xeon a pass takes about 60 s (sl-classes), 25 s
(sl-random) and 5 s (oracle-survey).

Timings in the end-to-end metrics are scaled to the machine's nominal
speed, measured by a probe that runs between operations (probe.py); the
line before the result also gives them unscaled.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass over the same inputs and prints the
per-layer metrics.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  The line before it holds
the seed, a digest of the generated inputs and the sample counts.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


from probe import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("sl-classes", "sl-random", "oracle-survey")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170

SETUP = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
t = time.perf_counter()
import invword
for q in sys.argv[3:]:
    invword.make_field(int(q))
took = time.perf_counter() - t
from probe import probe_once
print(took, sum(probe_once() for _ in range(30)) / 30)
"""


class BenchError(Exception):
    """A child process failed; the run prints no result."""


def _child(args, stdin_text=None):
    try:
        proc = subprocess.run([sys.executable] + args, input=stdin_text,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("child %s timed out" % args[0])
    if proc.returncode != 0:
        raise BenchError("child %s exited %d: %s" % (
            args[0], proc.returncode, proc.stderr.strip()[-2000:]))
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(fields):
    """`import invword` plus make_field for the workload's fields, each in
    a fresh interpreter that then runs the speed probe; the median of the
    scaled times and of the raw times."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        took, probe_s = map(float, _child(
            ["-c", SETUP, str(SRC), str(HERE)] + [str(q) for q in fields]
        ).split())
        scaled.append(took / (probe_s / NOMINAL_S))
        raw.append(took)
    return statistics.median(scaled), statistics.median(raw)


def run_pass(workload, items, trace=False, spans_path=None):
    job = {"workload": workload, "items": items, "trace": trace,
           "spans_path": str(spans_path) if spans_path else None}
    return json.loads(_child([str(HERE / "worker.py")], json.dumps(job)))


def passes_within(workload, items, seconds):
    """One pass, then more while the last pass's time still fits."""
    out = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        out.append(run_pass(workload, items))
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            return out


def pct(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def hd_median(values, grid=4096):
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)
    weighted mean of the order statistics.  Unlike the sample median it
    does not jump from one operation to its neighbour when a few
    operations near the middle swap places, which matters for the 31
    oracle queries with their uneven spacing."""
    x = sorted(values)
    n = len(x)
    a = (n + 1) / 2.0
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    cdf = [0.0]
    for k in range(grid):
        t = (k + 0.5) / grid
        cdf.append(cdf[-1] + math.exp(
            log_norm + (a - 1) * math.log(t * (1 - t))) / grid)
    weights = [cdf[(i + 1) * grid // n] - cdf[i * grid // n]
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def slowdown(p):
    """How much slower than nominal the machine ran during pass p."""
    return statistics.fmean(p["probe_s"]) / NOMINAL_S if p["probe_s"] else 1.0


def end_to_end(passes, setup_s, scale=True):
    """Throughput and memory are medians over passes; latencies pool the
    operations of every pass.  With ``scale``, each pass's timings are
    divided by its slowdown (probe.py)."""
    k = [slowdown(p) if scale else 1.0 for p in passes]
    lat = [op[0] / kp for p, kp in zip(passes, k) for op in p["ops"]]
    lengths = [n for p in passes for n in p["lengths"]]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(len(p["ops"]) / p["wall_s"] * kp
                                        for p, kp in zip(passes, k)),
                      "ops/s"),
        "op_p50_ms": (1e3 * hd_median(lat), "ms"),
        "op_p95_ms": (1e3 * pct(lat, 95), "ms"),
        "witness_len_mean": (statistics.fmean(lengths), "steps"),
        "witness_len_max": (max(lengths), "steps"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes),
                        "MiB"),
    }


def verify_p50_ms(p):
    """Median scaled time to check one returned witness in pass p."""
    return 1e3 * pct(p["verify"], 50) / slowdown(p)


def per_layer(untraced, traced):
    from spans import LAYERS, SPAN_NAMES
    from checks import ROUTES
    out = {"verify_p50_ms": (verify_p50_ms(untraced), "ms")}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in SPAN_NAMES:
        rec = traced["trace"][name]
        out[name + ".calls"] = (rec["calls"], "count")
        out[name + ".self_s"] = (rec["self_s"], "s")
        layer_self[name.split(".")[0]] += rec["self_s"]
    for layer, s in layer_self.items():
        out[layer + ".self_s"] = (s, "s")
    for name in ("constructor.construct_involution",
                 "constructor.brute_force_witness", "oracle.build_group"):
        out[name + ".raised"] = (traced["trace"][name]["raised"], "count")
    for route in ROUTES:
        out["constructor.steps." + route] = (traced["steps"].get(route, 0),
                                             "count")
    n_wit = len(traced["lengths"])
    out["constructor.reseeded_share"] = (
        traced["reseeded"] / n_wit if n_wit else 0.0, "share")
    n_ops = len(traced["ops"])
    out["fail_ratio"] = (sum(1 for op in traced["ops"] if op[1]) / n_ops,
                         "share")
    out["bench.self_s"] = (traced["wall_s"] - traced["in_package_s"], "s")
    out["trace.overhead_ratio"] = (traced["wall_s"] / untraced["wall_s"],
                                   "ratio")
    return out


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "src_lines": src_lines}


def run_workload(workload, seed, seconds, trace):
    sys.path.insert(0, str(SRC))
    from inputs import fields_of, make_inputs
    items, digest = make_inputs(workload, seed)
    if trace:
        OUT.mkdir(exist_ok=True)
        untraced = run_pass(workload, items)
        passes = [untraced, run_pass(
            workload, items, trace=True,
            spans_path=OUT / ("spans-%s-%d.tsv" % (workload, seed)))]
        metrics = per_layer(untraced, passes[1])
    else:
        passes = passes_within(workload, items, seconds)
        setup_s, setup_raw = setup_seconds(fields_of(items))
        metrics = end_to_end(passes, setup_s)
    ops = [op for p in passes for op in p["ops"]]
    info = {"workload": workload, "seed": seed, "inputs_sha256": digest,
            "passes": len(passes), "samples": len(ops),
            "slowdown": [slowdown(p) for p in passes],
            "failures": passes[0]["failures"][:10]}
    if not trace:
        info["verify_p50_ms"] = statistics.median(map(verify_p50_ms, passes))
        info["unscaled"] = {k: v for k, (v, _) in
                            end_to_end(passes, setup_raw, scale=False).items()}
    info.update(machine())
    print(json.dumps(info))
    print(json.dumps({
        "correct": all(p["wrong"] == 0 for p in passes),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op[1]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "invword" / "__init__.py").is_file():
        print("run.py: no invword sources under %s; run from a checkout of "
              "the repository" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        for w in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", w, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)])
            if proc.returncode != 0:
                return proc.returncode
        return 0
    try:
        run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
