"""The four benchmark workloads.

Each workload builds its inputs in __init__ (this is what setup_s
times), then exposes:

* jobs: the job list of one pass (run.py runs each pass in its own order,
  drawn from the seed);
* run(job): the program calls of one job (timed, and traced in a traced
  run), returning a dict of outputs;
* check(job, out): (verdict, counts), where verdict is "ok",
  KNOWN_DEFECT or a description of a wrong answer, and counts holds the
  machine-independent counts this job contributes;
* setup_counts and setup_errors: the same for the inputs built in setup.

The seed only orders the jobs, so every seed runs the same work and the
figures of different seeds compare.  The summands of a connected sum keep
their order: it changes the cost of some sums by up to 40%.
Answers are checked against the closed forms in oracles.py, never against
another knotupsilon route.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from math import gcd
from time import perf_counter

import knotupsilon as ku
import knotupsilon.cli

import oracles as o

# ROADMAP item 4: jump_report samples realizers at segment midpoints and
# raises this on complexes where such a midpoint is a tie parameter.
KNOWN_DEFECT = "distinct realizing coordinates off a breakpoint"
# The sum-tower chains known to raise it, in every summand order.  The
# same error on any other job is a wrong answer.
KNOWN_DEFECT_CHAINS = {((3, 5), (2, -3)), ((3, 7), (3, -5), (2, 3))}


def slice_counts(c):
    """Slice size, distinct (i, j) coordinates and pairwise tie parameters
    of the grading slice upsilon works on."""
    pts = ku.grading_slice(c, c.ambient_d)
    coords = {(p.i, p.j) for p in pts}
    return Counter({
        "complexes.generators": len(c.generators),
        "complexes.slice_points": len(pts),
        "complexes.distinct_coords": len(coords),
        "engine.tie_candidates": len(o.tie_candidates(coords)),
    })


def as_pair(f):
    return f.breakpoints, f.values


def build_summand(token):
    if token == "F":
        return ku.figure_eight_complex()
    return ku.torus_knot_complex(*token)


def connected_sum(tokens):
    return reduce(ku.tensor, [build_summand(t) for t in tokens])


def with_boxes(c, boxes):
    """Direct sum with acyclic boxes in the distinguished grading's parity,
    so their points enter the slice without changing upsilon."""
    for k in range(boxes):
        c = ku.direct_sum(c, ku.box_complex("box%d." % k, k % 2, 0), c.label)
    return c


def name_of(tokens):
    return "#".join("F" if t == "F" else "T(%d,%d)" % t for t in tokens)


class TorusLadder:
    """Sweep-bound: each job builds one positive torus knot T(p, q), then
    runs upsilon and tau.  Torus slices have many distinct coordinates,
    so many tie parameters and nu_at calls.

    The pool is every T(p, q) with 2 <= p <= 11, p < q <= 23, whose
    staircase has at most 41 generators: 77 knots up to T(8,23) and
    T(11,23).  T(13,29) (161 generators) is left out: its one upsilon
    call takes 4-7 s, and a reference timed only before and after it
    cannot follow the host's changes of state during it."""

    name = "torus-ladder"
    POOL = [(p, q) for p in range(2, 12) for q in range(p + 1, 24)
            if gcd(p, q) == 1 and o.torus_staircase(p, q) <= 41]

    def __init__(self, workdir):
        self.jobs = self.POOL
        self.setup_counts, self.setup_errors = Counter(), []

    def run(self, job):
        c = ku.torus_knot_complex(*job)
        return {"complex": c, "upsilon": ku.upsilon(c), "tau": ku.tau(c)}

    def check(self, job, out):
        f = out["upsilon"]
        counts = slice_counts(out["complex"])
        counts["engine.breakpoints"] = len(f.breakpoints) - 2
        if as_pair(f) != o.torus_upsilon(*job):
            return "upsilon of T(%d,%d) is not the semigroup form" % job, \
                counts
        if out["tau"] != o.torus_genus(*job):
            return "tau of T(%d,%d) is not its genus" % job, counts
        return "ok", counts


class SumTower:
    """Large slices with few distinct coordinates: each job tensors a chain
    of summands, adds acyclic boxes where listed, then runs validate,
    upsilon, tau and jump_report.

    trefoil^#6 (729 generators, 365 slice points, 6 distinct coordinates)
    stands in for trefoil^#7 and figure8^#4 for figure8^#5: those two took
    6 s of a 7.5 s pass on a shared 2-vCPU Xeon, left four timed passes
    per run, and their runs spread by 0.15-0.20 of the median."""

    name = "sum-tower"
    T23, F = (2, 3), "F"
    # (summands, boxes); the chains in KNOWN_DEFECT_CHAINS hit KNOWN_DEFECT
    POOL = [
        ([T23] * 6, 0),
        ([F] * 4, 0),
        ([(3, 4), (2, -3), F, F], 0),
        ([(2, 5), F, F, F], 1),
        ([(3, 7), (3, -5), (2, 3)], 0),
        ([(3, 5), (2, -3)], 0),
        ([T23] * 5, 0),
        ([(2, 3), (2, 5), (2, 7)], 0),
        ([(4, 5), (2, -3), (2, 3)], 0),
        ([(3, -4), (2, 5), (2, 3)], 0),
        ([(2, 5), (2, -3), F], 2),
        ([(3, 4), (3, 4)], 1),
        ([(3, 7), (3, -7)], 0),
        ([(2, -3)] * 4, 0),
        ([(3, 5), (3, 4)], 0),
        ([T23, T23, (2, -5)], 0),
        ([(2, 7), (2, -3), (2, -3)], 0),
        ([(4, 5), (3, -4)], 1),
        ([(3, 5), (2, -5), F], 0),
        ([(4, 5), (2, -3), F], 0),
    ]

    def __init__(self, workdir):
        self.jobs = self.POOL
        self.setup_counts, self.setup_errors = Counter(), []

    def run(self, job):
        tokens, boxes = job
        c = with_boxes(connected_sum(tokens), boxes)
        out = {"complex": c, "validate": ku.validate(c)}
        out["upsilon"] = f = ku.upsilon(c)
        out["tau"] = ku.tau(c)
        try:
            out["jumps"] = ku.jump_report(c, f)
        except AssertionError as exc:
            out["jumps"] = exc
        return out

    def check(self, job, out):
        tokens, boxes = job
        name = name_of(tokens) + " + %d boxes" % boxes
        f = out["upsilon"]
        counts = slice_counts(out["complex"])
        counts["engine.breakpoints"] = len(f.breakpoints) - 2
        if not out["validate"].ok:
            return "%s reported invalid" % name, counts
        if as_pair(f) != o.add(*map(o.summand_upsilon, tokens)):
            return "upsilon of %s is not its summands' sum" % name, counts
        if out["tau"] != sum(map(o.summand_tau, tokens)):
            return "tau of %s is not the sum of its summands'" % name, counts
        jumps = out["jumps"]
        if isinstance(jumps, AssertionError):
            if (str(jumps) == KNOWN_DEFECT and not boxes
                    and tuple(tokens) in KNOWN_DEFECT_CHAINS):
                return KNOWN_DEFECT, counts
            return "jump_report on %s raised %r" % (name, jumps), counts
        if len(jumps) != len(f.breakpoints) - 2 or not all(
                j.passed for j in jumps):
            return "jump_report on %s failed its identity" % name, counts
        return "ok", counts


class ConcordanceTable:
    """Work shared through the upsilon cached on each KnotRecord: setup
    computes every record's upsilon and tau once, and each job is one
    ordered pair of records."""

    name = "concordance-table"
    BUILTINS = ["unknot", "trefoil", "trefoil-left", "figure8", "torus:2,5",
                "torus:2,-5", "torus:3,4", "torus:3,-4", "torus:3,5",
                "torus:2,7", "torus:3,7", "torus:4,5", "chen-cable:8",
                "chen-cable:9", "chen-cable:12"]
    SUMS = [[(2, 3), "F"], [(2, 5), (2, -3)], [(2, 3), (2, -3)],
            [(3, 4), (2, -3)], [(2, 3), (2, 3)], [(3, 5), (3, -4)]]
    MIRRORED = ["torus:3,5", name_of(SUMS[3]), name_of(SUMS[4])]
    BOXED = ["trefoil", "figure8", "torus:3,4", name_of(SUMS[1])]

    def __init__(self, workdir):
        records, expected = {}, {}
        for name in self.BUILTINS:
            records[name] = ku.builtin_record(name)
            expected[name] = self._builtin_expected(name)
        for tokens in self.SUMS:
            name = name_of(tokens)
            c = connected_sum(tokens)
            genus = max(g.alexander for g in c.generators)
            records[name] = ku.KnotRecord(name, complex=c, genus=genus,
                                          fibered=True)
            expected[name] = (
                o.add(*map(o.summand_upsilon, tokens)),
                sum(map(o.summand_tau, tokens)))
        for name in self.MIRRORED:
            base = records[name]
            records["-" + name] = ku.KnotRecord(
                "-" + name, complex=ku.dual(base.complex), genus=base.genus,
                fibered=True)
            f, tau = expected[name]
            expected["-" + name] = o.negate(f), -tau
        self.boxed = {}
        for name in self.BOXED:
            base = records[name]
            records[name + "+box"] = ku.KnotRecord(
                name + "+box", complex=with_boxes(base.complex, 1),
                genus=base.genus, fibered=base.fibered,
                monodromy_right_veering=base.monodromy_right_veering)
            expected[name + "+box"] = expected[name]
            self.boxed[name + "+box"] = name

        self.setup_counts, self.setup_errors = Counter(), []
        self.tau = {}
        for name, rec in records.items():
            f = rec.upsilon_function()
            self.tau[name] = (ku.tau(rec.complex) if rec.complex is not None
                              else -f.initial_slope)
            if as_pair(f) != expected[name][0]:
                self.setup_errors.append("upsilon of %s is wrong" % name)
            if self.tau[name] != expected[name][1]:
                self.setup_errors.append("tau of %s is wrong" % name)
            if rec.complex is not None:
                self.setup_counts += slice_counts(rec.complex)
                self.setup_counts["engine.breakpoints"] += (
                    len(f.breakpoints) - 2)
        self.records, self.expected = records, expected
        self.jobs = [(a, b) for a in records for b in records]

    @staticmethod
    def _builtin_expected(name):
        if name in ("unknot", "figure8"):
            return o.ZERO, 0
        name = {"trefoil": "torus:2,3", "trefoil-left": "torus:2,-3"}.get(
            name, name)
        head, _, tail = name.partition(":")
        args = [int(s) for s in tail.split(",")]
        if head == "torus":
            return o.torus_upsilon(*args), o.summand_tau(tuple(args))
        n = args[0]
        return o.chen_cable_upsilon(n), n - 1

    def run(self, pair):
        a, b = (self.records[n] for n in pair)
        out = {"verdict": ku.obstruct_concordance(a, b), "certs": []}
        for rec in (a, b):
            if rec.genus is None:
                continue
            f = rec.upsilon_function()
            rv = ku.certify_right_veering(f, rec.genus)
            tight = ku.classify_tightness(self.tau[rec.name], rec.genus)
            ribbon = (ku.ribbon_minimality_report(rec) if rec.fibered
                      else None)
            out["certs"].append((rec.name, rv, tight, ribbon))
        return out

    def check(self, pair, out):
        a, b = pair
        v = out["verdict"]
        counts = Counter({"certificates.obstructed": int(v.obstructed)})
        differ = self.expected[a][0] != self.expected[b][0]
        if (v.reason == "upsilon_mismatch") != differ:
            return "upsilon_mismatch wrong on %s vs %s" % pair, counts
        equivalent = a == b or self.boxed.get(a) == b or self.boxed.get(b) == a
        if equivalent and v.obstructed:
            return "%s vs %s obstructed" % pair, counts
        for name, rv, tight, ribbon in out["certs"]:
            genus = self.records[name].genus
            f, tau = self.expected[name]
            hits = [start for start, slope in o.segments(f)
                    if slope == -genus]
            below_one, anywhere = any(t < 1 for t in hits), bool(hits)
            if rv.certified != below_one:
                return "certify_right_veering wrong on %s" % name, counts
            if (tight == "tight") != (tau == genus):
                return "classify_tightness wrong on %s" % name, counts
            if ribbon is not None and ribbon.hypothesis_holds != anywhere:
                return "ribbon_minimality_report wrong on %s" % name, counts
        return "ok", counts


class CliMix:
    """One `python -m knotupsilon.cli` process per job, so interpreter
    start, import and the JSON round trips are in every figure.  In a
    traced run each job also calls cli.main() in-process to expose its
    layers."""

    name = "cli-mix"
    rss_from_children = True
    reference = "interpreter"   # see hostspeed.py

    def __init__(self, workdir):
        self.in_process = False
        self.dir = os.path.join(workdir, "cli-%d" % os.getpid())
        os.makedirs(self.dir, exist_ok=True)
        self.src = os.path.dirname(os.path.dirname(ku.__file__))
        self.env = dict(os.environ, PYTHONPATH=self.src)

        def write(fname, text):
            path = os.path.join(self.dir, fname)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        as_json, torus = ku.complex_to_json, ku.torus_knot_complex
        trefoil_fig8 = ku.tensor(torus(2, 3), ku.figure_eight_complex())
        t58 = write("t58.json", as_json(torus(5, 8)))
        t47 = write("t47.json", as_json(torus(4, 7)))
        total = write("sum.json", as_json(trefoil_fig8))
        bad = json.loads(as_json(torus(2, 3)))
        bad["differential"][0]["upower"] += 1      # breaks the Maslov rule
        bad = write("bad.json", json.dumps(bad))
        broken = write("broken.json", '{"label": "T(2,3)", "generators": [')

        def upsilon(p, q):
            return o.pl_json(o.torus_upsilon(p, q))

        t34 = o.torus_upsilon(3, 4)
        # (argv, stdin file or None, expected stdout, expected exit code)
        self.jobs = [
            (["build", "torus:3,7"], None, as_json(torus(3, 7)), 0),
            (["upsilon", "--file", t58], None, upsilon(5, 8), 0),
            (["upsilon", "-"], t47, upsilon(4, 7), 0),
            (["upsilon", "torus:7,9"], None, upsilon(7, 9), 0),
            (["tensor", "trefoil", "figure8"], None, as_json(trefoil_fig8), 0),
            (["tau", "torus:3,5"], None, _dumps({"tau": 4}), 0),
            (["validate", "--file", total], None,
             _dumps({"ok": True, "violations": []}), 0),
            (["sample", "trefoil", "1/8"], None,
             o.sample_csv(o.torus_upsilon(2, 3), Fraction(1, 8)), 0),
            (["dual", "torus:2,5"], None, as_json(ku.dual(torus(2, 5))), 0),
            (["certify-rv", "torus:3,4"], None, _dumps({
                "verdict": "right_veering_certified",
                "witness_interval": ["0", o.format_rational(t34[0][1])],
                "genus_used": 3,
                "rules_fired": ["slope-genus-right-veering"]}), 0),
            (["obstruct", "trefoil", "figure8"], None, _dumps({
                "verdict": "obstructed", "reason": "upsilon_mismatch",
                "detail": "upsilon functions differ at t=1: -1 vs 0"}), 0),
            # T(2,5) has slope -2 = -genus on [0, 1]
            (["ribbon-report", "torus:2,5"], None, _dumps({
                "knot": "torus:2,5", "genus": 2, "slope_target": -2,
                "hypothesis": {"holds": True, "witness_interval": ["0", "1"],
                               "t_interval": "[0,2]"},
                "ribbon_uniqueness_hypothesis": {
                    "holds": True, "witness_interval": ["0", "1"],
                    "t_interval": "[0,1]"},
                "conclusions": [
                    "minimal under homotopy ribbon concordance among fibered "
                    "knots",
                    "mirror is minimal under homotopy ribbon concordance "
                    "among fibered knots",
                    "any fibered partner with the same slope property whose "
                    "connected sum with the mirror is ribbon must equal this "
                    "knot"]}), 0),
            (["upsilon", "-"], broken, "", 2),
            (["upsilon", "--file", bad], None, "", 1),
        ]
        self.setup_counts, self.setup_errors = Counter(), []

    def run(self, job):
        argv, stdin_path, _, _ = job
        cmd = [sys.executable, "-m", "knotupsilon.cli"] + argv
        err_path = os.path.join(self.dir, "stderr")
        with open(stdin_path or os.devnull, "rb") as fin, \
                open(err_path, "w+b") as ferr:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdin=fin, stdout=subprocess.PIPE,
                                    stderr=ferr, env=self.env,
                                    cwd=os.path.dirname(self.src))
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            out = {"process_s": perf_counter() - start,
                   "maxrss_kib": usage.ru_maxrss}
            proc.returncode = os.waitstatus_to_exitcode(status)
            ferr.seek(0)
            stderr = ferr.read()
        out.update(code=proc.returncode, stdout=stdout.decode("utf-8"),
                   stderr=stderr.decode("utf-8"))
        if self.in_process:
            out["main"] = self._main(argv, stdin_path)
        return out

    @staticmethod
    def _main(argv, stdin_path):
        text = ""
        if stdin_path:
            with open(stdin_path, encoding="utf-8") as fh:
                text = fh.read()
        stdout, stderr, saved = io.StringIO(), io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = knotupsilon.cli.main(argv)
        finally:
            sys.stdin = saved
        return code, stdout.getvalue()

    def check(self, job, out):
        argv, _, expected, code = job
        counts = Counter({"cli.calls": 1,
                          "cli.stdout_bytes": len(out["stdout"].encode())})
        what = "knotupsilon " + " ".join(argv)
        if out["code"] != code:
            return "%s exited %d, not %d" % (what, out["code"], code), counts
        if out["stdout"] != expected:
            return "%s printed unexpected output" % what, counts
        if code and (not out["stderr"].startswith("error: ")
                     or "Traceback" in out["stderr"]):
            return "%s gave no clean error message" % what, counts
        if "main" in out and out["main"] != (code, expected):
            return "in-process main(%s) disagrees" % " ".join(argv), counts
        return "ok", counts

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _dumps(obj):
    return json.dumps(obj, indent=2) + "\n"


WORKLOADS = {w.name: w for w in (TorusLadder, SumTower, ConcordanceTable,
                                 CliMix)}
