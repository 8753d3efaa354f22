"""Steadiness self-check of the benchmark.

    python3 perfbench/steadiness.py --workload sum-tower --seeds 1-5
    python3 perfbench/steadiness.py --workload all --seeds 1-10 --traced

Runs run.py once per seed (--trace 0), then the first seed again.  For each
end-to-end metric it prints the median and the spread, the distance
between the first and third quartile as a share of the median, beside the
metric's bound in BENCHMARK.json.  It fails if any spread exceeds its
bound, if any run reports a wrong answer, or if the machine-independent
counts of the repeated seed differ.  With --traced it
also makes two traced runs of the first seed and requires every per-layer
count (every metric not in seconds) to repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.strip().splitlines()
    info = json.loads(out[-2][len("info "):])
    return json.loads(out[-1]), info


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def check_workload(workload, seeds, seconds, traced, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    problems, values, counts = [], {}, []
    for seed in seeds:
        result, info = run(workload, seed, seconds, 0)
        if not result["correct"]:
            problems.append("seed %d: wrong answers %s"
                            % (seed, info["wrong"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        counts.append(info["counts"])
        print("  seed %-3d %s failed=%d/%d" % (
            seed, " ".join("%s=%.5g" % (n, m["value"])
                           for n, m in result["metrics"].items()),
            result["failed"], result["attempted"]), flush=True)
    _, again = run(workload, seeds[0], seconds, 0)
    if again["counts"] != counts[0]:
        problems.append("counts of seed %d differ between runs" % seeds[0])
    print("  counts repeat for seed %d: %s; equal across seeds: %s" % (
        seeds[0], again["counts"] == counts[0],
        all(c == counts[0] for c in counts)))
    summary = {}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "spread": spread,
                         "bound": bounds[name], "values": vals}
        flag = ("" if spread <= bounds[name] / 3 else
                " (above a third of the bound)")
        if spread > bounds[name]:
            flag = " EXCEEDS BOUND"
            problems.append("%s spread %.3f > bound %.3f"
                            % (name, spread, bounds[name]))
        print("  %-13s median %-12.6g spread %.4f bound %.2f%s" % (
            name, med, spread, bounds[name], flag))
    if traced:
        layers = []
        for _ in range(2):
            result, _ = run(workload, seeds[0], seconds, 1)
            layers.append({n: m["value"] for n, m in result["metrics"].items()
                           if m["unit"] != "s"})
        if layers[0] != layers[1]:
            diff = sorted(k for k in layers[0] if layers[0][k] != layers[1][k])
            problems.append("traced counters differ: %s" % diff)
        print("  traced counters repeat: %s" % (layers[0] == layers[1]))
    return summary, problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = ([w["name"] for w in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    failed = False
    for workload in names:
        print(workload, flush=True)
        summary, problems = check_workload(workload, seed_list(args.seeds),
                                           seconds, args.traced, bench)
        out = ROOT / ".bench_out" / ("steadiness-%s.json" % workload)
        out.write_text(json.dumps({"summary": summary, "problems": problems},
                                  indent=1))
        for line in problems:
            print("  PROBLEM: " + line)
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
