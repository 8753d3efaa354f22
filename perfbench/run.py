"""Benchmark of knotupsilon: four workloads, exactly checked answers, and a
separate traced run for per-layer figures.

    python3 perfbench/run.py --workload sum-tower --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  One process, no worker threads; the
cli-mix workload starts one CLI process at a time.

A run makes at least four whole passes over the workload's job list, and
more until the passes have taken --seconds, so every run holds the same
mix of jobs.  With --trace 0 it prints the end-to-end metrics.  The job
times behind them are scaled to the host's fast state by reference work
timed between the jobs (hostspeed.py): the 2-vCPU Xeon host switched, for
under a second or for minutes, between a fast and a slow state.  With
--trace 1 it runs one warm-up pass, then alternates untraced and traced
passes; it prints the per-layer metrics of the set-up plus the first
traced pass, and writes every span to .bench_out/.

The last line of output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  The line before it, starting "info ", records the
machine, the seeds, the failures and the machine-independent counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ["torus-ladder", "sum-tower", "concordance-table", "cli-mix"]
SETUP_SAMPLES = 15
MIN_PASSES = 4
# job_tail_s is the highest whole percentile of the MIN_PASSES middle
# runs of each job with at least this many of them beyond it.
TAIL_BEYOND = 10
IMPORT_SAMPLES = 5
MAX_TRACED_PAIRS = 4
# Never used while writing a change; a claimed gain is confirmed on it.
CONFIRM_SEED = 7919

END_TO_END = [("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mib", "MiB")]
# Counts that follow from the inputs and outputs alone; every run computes
# them and they must repeat exactly for the same code and seed.
COUNTS = ["complexes.generators", "complexes.slice_points",
          "complexes.distinct_coords", "engine.tie_candidates",
          "engine.breakpoints", "certificates.obstructed", "cli.calls",
          "cli.stdout_bytes"]
PER_LAYER = [
    ("knots.build_calls", "count"), ("knots.build_s", "s"),
    ("complexes.tensor_calls", "count"), ("complexes.tensor_s", "s"),
    ("complexes.validate_s", "s"), ("complexes.json_s", "s"),
    ("complexes.generators", "count"), ("complexes.slice_points", "count"),
    ("complexes.distinct_coords", "count"),
    ("engine.nu_at_calls", "count"), ("engine.nu_at_s", "s"),
    ("engine.tie_candidates", "count"), ("engine.breakpoints", "count"),
    ("engine.breakpoint_yield", "ratio"),
    ("engine.upsilon_calls", "count"), ("engine.upsilon_self_s", "s"),
    ("engine.upsilon_cache_hits", "count"),
    ("engine.tau_s", "s"), ("engine.jump_report_s", "s"),
    ("engine.jump_report_failures", "count"),
    ("gf2.echelon_adds", "count"), ("gf2.echelon_reduces", "count"),
    ("gf2.echelon_s", "s"), ("gf2.kernel_calls", "count"),
    ("gf2.kernel_s", "s"),
    ("plfunction.constructs", "count"), ("plfunction.evals", "count"),
    ("plfunction.self_s", "s"),
    ("certificates.calls", "count"), ("certificates.self_s", "s"),
    ("certificates.obstructed", "count"),
    ("cli.calls", "count"), ("cli.process_s", "s"), ("cli.main_s", "s"),
    ("cli.import_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)   # one timed set-up, for setup_s
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "knotupsilon" / "__init__.py").is_file():
        print("perfbench: no knotupsilon sources under %s" % SRC,
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import knotupsilon
    if Path(knotupsilon.__file__).resolve().parent != SRC / "knotupsilon":
        print("perfbench: imported knotupsilon from %s, not %s"
              % (knotupsilon.__file__, SRC), file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    if args.setup_only:
        wl = cls(str(OUT))
        print("ready", flush=True)
        close(wl)
        return 0
    run = traced_run if args.trace else timed_run
    result, info, lines = run(cls, args)
    for line in lines:
        print(line)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def close(wl):
    if hasattr(wl, "close"):
        wl.close()


# ---------------------------------------------------------------------------
# running passes


class Tally:
    """Outcomes and times of every job a run attempted, and the seeded job
    order.  The scaled times are single floats, so that the memory they
    take moves peak_rss_mib as little as it can."""

    def __init__(self, seed, jobs):
        self.rng = random.Random(seed)
        self.passes, self.elapsed, self.wall_s = 0, 0.0, 0.0
        # each job's runs, in fast-state seconds
        self.scaled = [array("f") for _ in range(jobs)]
        self.attempted, self.ok, self.known, self.wrong = 0, 0, 0, []
        self.child_rss_kib = 0

    def add_scaled(self, pairs):
        for k, t in pairs:
            self.scaled[k].append(t)

    @property
    def failed(self):
        return self.attempted - self.ok


def run_pass(wl, tally, tracer=None, scaler=None):
    """One pass over wl.jobs, in an order drawn from the seed afresh for
    each pass, so that no job always follows the same one.  With a
    scaler, times the reference between jobs.  Returns (counts, wall
    seconds, CLI process seconds)."""
    from workloads import KNOWN_DEFECT
    counts, process_s = Counter(), 0.0
    tally.passes += 1
    gc.collect()
    start = perf_counter()
    if scaler is not None:
        scaler.start()
    for k in tally.rng.sample(range(len(wl.jobs)), len(wl.jobs)):
        job = wl.jobs[k]
        out = None      # free the last job's output before the clock starts
        if tracer is not None:
            tracer.job = tally.attempted
        t0 = perf_counter()
        try:
            out = wl.run(job)
        except Exception:       # a crash fails the job, the run goes on
            took = perf_counter() - t0
            out, verdict = None, "job %r raised %s" % (
                job, traceback.format_exc(limit=-1).strip().splitlines()[-1])
        else:
            took = perf_counter() - t0
            verdict, job_counts = wl.check(job, out)
            counts.update(job_counts)
        if tracer is not None:
            tracer.job = -1
        tally.attempted += 1
        tally.wall_s += took
        if scaler is not None:
            tally.add_scaled(scaler.add(k, took))
        if verdict == "ok":
            tally.ok += 1
        elif verdict == KNOWN_DEFECT:
            tally.known += 1
        else:
            tally.wrong.append(verdict)
        if out is not None and "process_s" in out:
            process_s += out["process_s"]
            tally.child_rss_kib = max(tally.child_rss_kib, out["maxrss_kib"])
    if scaler is not None:
        tally.add_scaled(scaler.flush())
    wall = perf_counter() - start
    tally.elapsed += wall
    return counts, wall, process_s


def time_setup(args):
    """Seconds from starting a fresh interpreter until it has imported
    knotupsilon and built the workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    with proc.stdout:
        line = proc.stdout.readline()
        took = perf_counter() - start
        proc.stdout.read()
    if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up child failed with exit %d"
                           % proc.returncode)
    return took


def time_scaled_setup(args):
    """time_setup, scaled to the host's fast state by the interpreter
    reference timed just before and after it.  Returns (scaled, wall)."""
    from hostspeed import NOMINAL, time_interpreter
    before = time_interpreter(cwd=ROOT)
    took = time_setup(args)
    after = time_interpreter(cwd=ROOT)
    return took * 2 * NOMINAL["interpreter"] / (before + after), took


def time_import():
    """Median time a fresh interpreter spends importing knotupsilon.cli,
    over and above starting up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare, loaded = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, into in (("pass", bare), ("import knotupsilon.cli", loaded)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           check=True, timeout=60)
            into.append(perf_counter() - start)
    return statistics.median(loaded) - statistics.median(bare)


def tail_level(jobs):
    """The highest whole percentile of MIN_PASSES * jobs job runs that
    leaves TAIL_BEYOND of them beyond it.  It depends on the job list
    alone, so every run, and every commit, reports the same percentile."""
    last = MIN_PASSES * jobs - 1
    return max(level for level in range(1, 100)
               if last - last * level // 100 >= TAIL_BEYOND)


def environment(args):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "confirm_seed": CONFIRM_SEED, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def outcome(tally, wl, info):
    info.update(attempted=tally.attempted, failed=tally.failed,
                failed_frac=tally.failed / tally.attempted,
                known_defect_jobs=tally.known, wrong=tally.wrong[:10],
                setup_errors=wl.setup_errors)
    correct = not tally.wrong and not wl.setup_errors
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed}


def failure_line(tally):
    line = "failed_frac   %.4f        %d of %d jobs" % (
        tally.failed / tally.attempted, tally.failed, tally.attempted)
    if tally.known:
        line += "; %d hit the known jump_report defect" % tally.known
    if tally.wrong:
        line += "; %d WRONG, first: %s" % (len(tally.wrong), tally.wrong[0])
    return line


def middle_runs(runs):
    """The MIN_PASSES runs of one job nearest its median run."""
    start = (len(runs) - MIN_PASSES) // 2
    return sorted(runs)[start:start + MIN_PASSES]


def timed_run(cls, args):
    from hostspeed import Scaler
    wl = cls(str(OUT))
    kind = getattr(wl, "reference", "python")
    scaler = Scaler(kind, getattr(wl, "env", None), ROOT)
    tally, first, setups = Tally(args.seed, len(wl.jobs)), None, []
    try:
        while tally.passes < MIN_PASSES or tally.elapsed < args.seconds:
            # spread the set-ups over the run, between passes, so that
            # they meet the same host states as the jobs
            while len(setups) < min(1, tally.elapsed / args.seconds) \
                    * SETUP_SAMPLES:
                setups.append(time_scaled_setup(args))
            counts, _, _ = run_pass(wl, tally, scaler=scaler)
            if first is None:
                first = counts
            elif counts != first:
                tally.wrong.append("counts of pass %d differ from pass 1"
                                   % tally.passes)
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_scaled_setup(args))
    finally:
        close(wl)
    # before the lists below, whose size grows with the number of passes
    rss_kib = (tally.child_rss_kib if getattr(wl, "rss_from_children", False)
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    passes = tally.passes
    scaled = [t for runs in tally.scaled for t in runs]
    middle = [t for runs in tally.scaled for t in middle_runs(runs)]
    setups, setup_wall = [s for s, _ in setups], [w for _, w in setups]
    level = tail_level(len(wl.jobs))
    tail = statistics.quantiles(middle, n=100, method="inclusive")[level - 1]
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": tally.ok / sum(scaled),
        "job_p50_s": statistics.median(scaled),
        "job_tail_s": tail,
        "peak_rss_mib": rss_kib / 1024,
    }
    beyond = sum(1 for t in middle if t > tail)
    info = environment(args)
    info.update(passes=passes, jobs_per_pass=len(wl.jobs),
                tail_level=level, tail_samples_beyond=beyond,
                setup_samples=setups, setup_wall_samples=setup_wall,
                reference=kind,
                reference_nominal_s=scaler.nominal,
                reference_p50_s=statistics.median(scaler.refs),
                references=len(scaler.refs),
                wall_jobs_per_s=tally.ok / tally.wall_s,
                counts=all_counts(wl.setup_counts + first))
    result = outcome(tally, wl, info)
    result["metrics"] = {n: {"value": values[n], "unit": u}
                         for n, u in END_TO_END}
    notes = {"setup_s": "median of %d set-ups; %.6g unscaled" % (
                 SETUP_SAMPLES, statistics.median(setup_wall)),
             "jobs_per_s": "%.6g unscaled" % info["wall_jobs_per_s"],
             "job_p50_s": "%d jobs in %d passes" % (tally.attempted, passes),
             "job_tail_s": "p%s of each job's %d middle runs, %d of %d "
                           "beyond it" % (level, MIN_PASSES, beyond,
                                          len(middle))}
    lines = [HEADER % info]
    lines.append("job times scaled by the %s reference: %.6g s nominal, "
                 "%.6g s median of %d" % (kind, scaler.nominal,
                                          info["reference_p50_s"],
                                          len(scaler.refs)))
    lines += ["%-13s %-12.6g %-4s %s" % (n, values[n], u, notes.get(n, ""))
              for n, u in END_TO_END]
    lines.append(failure_line(tally))
    return result, info, lines


HEADER = ("perfbench %(workload)s seed=%(seed)s confirm_seed=%(confirm_seed)s"
          " python=%(python)s nproc=%(nproc)s cpu=%(cpu)r")


def all_counts(counts):
    return {k: counts.get(k, 0) for k in COUNTS}


def traced_run(cls, args):
    from spans import Tracer
    import_s = time_import()
    tracer = Tracer()
    tracer.install()
    since = tracer.snapshot()
    wl = cls(str(OUT))
    if hasattr(wl, "in_process"):
        wl.in_process = True
    tally, overheads, first = Tally(args.seed, len(wl.jobs)), [], None
    start = perf_counter()
    try:
        # the first pass of a process runs slower; keep it out of the pairs
        tracer.uninstall()
        run_pass(wl, tally)
        while not overheads or (perf_counter() - start < args.seconds
                                and len(overheads) < MAX_TRACED_PAIRS):
            tracer.uninstall()
            _, untraced, _ = run_pass(wl, tally)
            tracer.install()
            mark = tracer.snapshot()
            counts, traced, process_s = run_pass(wl, tally, tracer)
            overheads.append(traced - untraced)
            fixed = {k: v for k, v in tracer.layer_metrics(mark).items()
                     if not k.endswith("_s")}
            if first is None:
                first = (tracer.layer_metrics(since), counts, process_s, fixed)
            elif (counts, fixed) != (first[1], first[3]):
                tally.wrong.append("counters of traced pass %d differ from "
                                   "the first" % len(overheads))
    finally:
        tracer.uninstall()
        close(wl)
    tracer.write(OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed)))
    layers, counts, process_s, _ = first
    values = dict(layers)
    values.update(all_counts(wl.setup_counts + counts))
    values["engine.breakpoint_yield"] = (
        values["engine.breakpoints"] / values["engine.tie_candidates"]
        if values["engine.tie_candidates"] else 0.0)
    values["cli.process_s"] = process_s
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = statistics.median(overheads)
    info = environment(args)
    info.update(traced_passes=len(overheads), overheads_s=overheads,
                counts=all_counts(wl.setup_counts + counts))
    result = outcome(tally, wl, info)
    result["metrics"] = {n: {"value": values[n], "unit": u}
                         for n, u in PER_LAYER}
    lines = [HEADER % info + " traced"]
    lines += ["%-28s %-12.6g %s" % (n, values[n], u) for n, u in PER_LAYER]
    lines.append(failure_line(tally))
    return result, info, lines


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    names = END_TO_END if not args.trace else PER_LAYER
    table, status = {}, 0
    for workload in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        table[workload] = result
    print("\n%-28s %-5s " % ("metric", "unit")
          + " ".join("%-17s" % w for w in table))
    for name, unit in names + [("failed_frac", "1")]:
        row = []
        for r in table.values():
            v = (r["failed"] / r["attempted"] if name == "failed_frac"
                 else r["metrics"][name]["value"])
            row.append("%-17.6g" % v)
        print("%-28s %-5s %s" % (name, unit, " ".join(row)))
    return status


if __name__ == "__main__":
    sys.exit(main())
