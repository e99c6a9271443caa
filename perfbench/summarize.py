"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/summarize.py --workloads sl-random --seeds 1-10
    python3 perfbench/summarize.py --seeds 1-10 --out perfbench/out/base.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and that spread as a share of the metric's bound in
BENCHMARK.json.  Runs are made one at a time.  ``--out`` writes these
summaries, every run's result, the machine, the Python version, the
``src/`` line count and the commit, so that two commits can be compared
run by run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run failed (%s, seed %d): %s"
                         % (workload, seed, proc.stderr.strip()[-1000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs, summary = [], {}
    for workload in args.workloads.split(","):
        mine = []
        for seed in args.seeds:
            info, result = one_run(workload, seed, args.seconds, args.trace)
            runs.append({"info": info, "result": result})
            mine.append(result)
            print("%s seed %d: attempted %d failed %d correct %s" % (
                workload, seed, result["attempted"], result["failed"],
                result["correct"]), flush=True)
        print("%-14s %-18s %12s %12s %12s %7s %7s" % (
            workload, "metric", "median", "q1", "q3", "spread", "/bound"))
        summary[workload] = {}
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            if len(values) < 2:
                summary[workload][name] = {"value": values[0]}
                continue
            med, q1, q3, sp = spread(values)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": sp}
            b = bounds.get(name)
            print("%-14s %-18s %12.6g %12.6g %12.6g %7.3f %7s" % (
                "", name, med, q1, q3, sp,
                "%.2f" % (sp / b) if b else "-"), flush=True)
    if args.out:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
        machine = {k: runs[0]["info"][k]
                   for k in ("nproc", "cpu", "python", "src_lines")}
        Path(args.out).write_text(json.dumps(
            {"commit": commit or None, "machine": machine,
             "seconds": args.seconds, "trace": args.trace,
             "seeds": args.seeds, "summary": summary, "runs": runs},
            indent=1) + "\n")


if __name__ == "__main__":
    main()
