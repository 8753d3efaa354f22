"""Reference work that tracks the speed of the host, not of knotupsilon.

The shared 2-vCPU Xeon the benchmark was tuned on switches between a fast
and a slow state, for under a second or for minutes at a time, with no
steal time: the same CPU work takes up to 1.8 times as long in the slow
state.  A run that falls wholly in a slow stretch reads slow however many
passes it makes.  So run.py times a fixed piece of reference work between
jobs, and scales each job's wall time by

    nominal / (mean of the reference times just before and after the job)

where nominal is the reference's time in the fast state.  The result is
the job's wall time at the fast-state speed of that host.  The reference
work never touches knotupsilon, so a change to the program moves the
scaled times exactly as it moves the wall times.

Two references, matched to the work a workload's jobs do:

* python: a fixed loop of Fraction and dict arithmetic, with the cyclic
  garbage collector off so that the program's heap cannot slow it;
* interpreter: starting a bare interpreter in a child process, the way a
  cli-mix job starts `python -m knotupsilon.cli`.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# Fast-state times of the two references on the 2-vCPU Xeon above, in s:
# near the fastest of a few hundred samples taken across both states
# (python: 0.0031 fastest, 0.0059 median; interpreter: 0.043, 0.059).
NOMINAL = {"python": 0.0032, "interpreter": 0.043}
# Time one reference after about this many nominal references' worth of
# job time.
EVERY = 8


def python_work():
    total, seen = Fraction(0), {}
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
        seen[i % 501] = seen.get(i % 501, 0) + i
    return total


def time_python():
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        python_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def time_interpreter(env=None, cwd=None):
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                   env=env, cwd=cwd, check=True, timeout=60)
    return perf_counter() - start


class Scaler:
    """Times the reference between jobs and turns wall times into
    fast-state times.

    add(job, took) queues one job's wall time; once EVERY nominal
    references' worth of job time is queued it times the reference and
    returns (job, scaled time) for each queued job.  flush() does the same
    for whatever is queued at the end of a pass."""

    def __init__(self, kind, env=None, cwd=None):
        self.nominal = NOMINAL[kind]
        self.measure = (time_python if kind == "python"
                        else lambda: time_interpreter(env, cwd))
        self.refs, self.queue, self.last = [], [], None

    def reference(self):
        took = self.measure()
        self.refs.append(took)
        return took

    def start(self):
        self.last = self.reference()

    def add(self, job, took):
        self.queue.append((job, took))
        if sum(t for _, t in self.queue) < EVERY * self.nominal:
            return []
        return self.flush()

    def flush(self):
        if not self.queue:
            return []
        now = self.reference()
        factor = 2 * self.nominal / (self.last + now)
        scaled = [(job, t * factor) for job, t in self.queue]
        self.queue, self.last = [], now
        return scaled
