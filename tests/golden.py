"""The golden corpus: pinned answers of the library and the CLI.

    PYTHONPATH=src:tests python tests/golden.py

rewrites tests/golden.jsonl, one compact JSON line per case:

* per complex, its validate report (the d^2 messages in order), its upsilon
  JSON, tau and every JumpCheck of jump_report, or the error each raised;
  the complexes are the 14 corpus knots, the 64 ordered tensors of the
  first 8, 200 random admissible complexes drawn from random.Random(5),
  T(13,29) and T(17,31), then seeded broken complexes;
* per CLI run, its stdout, stderr and exit code, run in-process in a
  directory holding only the files write_inputs puts there.

test_golden.py recomputes every line and compares it with the file byte
for byte; it never rewrites the file.  A change that alters a pinned line
regenerates the file and names each changed line and its reason in
CHANGES.md.  Witness cycles and cocycles are not unique, so no line pins
them: test_golden.py re-proves them with check_segment_certificate.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from pathlib import Path

import knotupsilon as ku
from knotupsilon.cli import main as cli_main

from helpers import corpus, random_admissible_complex, renamed

GOLDEN = Path(__file__).resolve().parent / "golden.jsonl"


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ---------------------------------------------------------------------------
# complexes


def complex_cases():
    """(case name, complex) for every complex with pinned answers."""
    named = list(corpus())
    cases = [("corpus:" + n, c) for n, c in named]
    first = named[:8]
    cases += [("tensor:%s|%s" % (n1, n2), ku.tensor(c1, c2))
              for n1, c1 in first for n2, c2 in first]
    rng = random.Random(5)
    cases += [("random:%d" % k, random_admissible_complex(rng, "g%d" % k))
              for k in range(200)]
    cases += [("torus:%d,%d" % pq, ku.torus_knot_complex(*pq))
              for pq in ((13, 29), (17, 31))]
    return cases + broken_cases()


def _broken_bases():
    t = ku.torus_knot_complex
    fig8 = ku.figure_eight_complex()
    return [
        ("T(2,3)#T(2,5)", ku.tensor(t(2, 3), t(2, 5))),
        ("T(3,4)#T(2,-3)", ku.tensor(t(3, 4), t(2, -3))),
        ("T(2,3)#T(2,3)#T(2,-3)",
         reduce(ku.tensor, [t(2, 3), t(2, 3), t(2, -3)])),
        ("figure8", fig8),
        ("figure8#T(2,3)", ku.tensor(fig8, t(2, 3))),
        ("figure8#figure8", ku.tensor(fig8, fig8)),
        ("staircase:1,2,2,1", ku.staircase([1, 2, 2, 1])),
        ("staircase:2,1#staircase:1,3",
         ku.tensor(ku.staircase([2, 1]), ku.staircase([1, 3]))),
    ]


def _legal_entry(rng, gens, present):
    """An entry obeying the Maslov and Alexander rules, not yet present."""
    for _ in range(20):
        x, z = rng.choice(gens), rng.choice(gens)
        k, odd = divmod(z.maslov - x.maslov + 1, 2)
        e = ku.DiffEntry(x.name, z.name, k)
        if (not odd and k >= 0 and x.alexander - z.alexander + k >= 0
                and e not in present):
            return e
    return None


def _break(rng, gens, diff, kind=None):
    """One structural fault other than d^2, of the given kind (0-5) or one
    drawn from the kinds validate reports; gens and diff are lists, changed
    in place."""
    kind = rng.randrange(6) if kind is None else kind
    if kind == 0:       # an entry to a generator that is not there
        x = rng.choice(gens)
        diff.insert(rng.randrange(len(diff) + 1),
                    ku.DiffEntry(x.name, "ghost", 0))
    elif kind == 1 and diff:     # an entry out of a dropped generator
        gone = gens.pop(rng.randrange(len(gens)))
        if not any(gone.name in e[:2] for e in diff):
            diff.append(ku.DiffEntry(gone.name, gens[0].name, 0))
    elif kind == 2 and diff:     # a doubled entry
        diff.insert(rng.randrange(len(diff) + 1), rng.choice(diff))
    elif kind == 3:     # a doubled name with other gradings
        g = rng.choice(gens)
        gens.insert(rng.randrange(len(gens) + 1),
                    ku.Generator(g.name, g.alexander + 1, g.maslov))
    else:               # any pair and U-power: Maslov, Alexander, negative k
        x, z = rng.choice(gens), rng.choice(gens)
        diff.insert(rng.randrange(len(diff) + 1),
                    ku.DiffEntry(x.name, z.name, rng.randint(-1, 3)))


def broken_cases(count=160):
    """Seeded broken complexes: entries dropped and legal entries added on
    tensors of torus knots, the figure-eight and staircases, so that d^2
    fails, and in every fourth one a further fault of another kind."""
    rng = random.Random(16)
    bases = _broken_bases()
    cases = []
    for k in range(count):
        name, c = bases[k % len(bases)]
        gens, diff = list(c.generators), list(c.differential)
        for _ in range(min(rng.randint(0, 3), len(diff))):
            diff.pop(rng.randrange(len(diff)))
        for _ in range(rng.randint(0, 3)):
            e = _legal_entry(rng, gens, set(diff))
            if e is not None:
                diff.insert(rng.randrange(len(diff) + 1), e)
        if k % 4 == 3:
            _break(rng, gens, diff)
        cases.append(("broken:%d:%s" % (k, name),
                      ku.BifilteredComplex(gens, diff, c.ambient_d, c.label)))
    return cases


def _attempt(fn):
    try:
        return fn()
    except (ku.KnotLibError, ValueError, AssertionError) as exc:
        return {"error": "%s: %s" % (type(exc).__name__, exc)}


def _jumps(c, f):
    return [[str(j.t0), list(j.left_point), list(j.right_point),
             j.slope_before, j.slope_after, str(j.expected_jump), j.passed,
             j.degenerate] for j in ku.jump_report(c, f)]


def complex_line(case, c) -> str:
    report = ku.validate(c)
    out = {"case": case, "validate": [report.ok, list(report.violations)],
           "upsilon": _attempt(lambda: ku.upsilon(c).to_json_dict()),
           "tau": _attempt(lambda: ku.tau(c))}
    if "error" not in out["upsilon"]:
        out["jumps"] = _attempt(lambda: _jumps(c, ku.upsilon(c)))
    return _dumps(out)


# ---------------------------------------------------------------------------
# CLI runs


def write_inputs(where: Path):
    """The files the CLI runs read, written into where."""
    tref = ku.torus_knot_complex(2, 3)
    gens = list(tref.generators)
    gens[1] = gens[1]._replace(maslov=gens[1].maslov + 2)
    files = {
        "trefoil.json": ku.complex_to_json(tref),
        "fig8.json": ku.complex_to_json(ku.figure_eight_complex()),
        "chen.json": ku.chen_cable_upsilon(8).to_json(),
        "bad.json": ku.complex_to_json(ku.BifilteredComplex(
            gens, tref.differential, 0, "bad")),
        "rank2.json": ku.complex_to_json(ku.BifilteredComplex(
            [ku.Generator("x", 0, 0), ku.Generator("y", 0, 0)], [], 0)),
        "ghost.json": ku.complex_to_json(ku.BifilteredComplex(
            [ku.Generator("x", 0, 0)], [ku.DiffEntry("x", "y", 0)], 0)),
        # valid, but their tensor would name two generators "a*b*c"
        "clash_a.json": ku.complex_to_json(renamed(tref, ["a", "a*b", "q"])),
        "clash_b.json": ku.complex_to_json(renamed(tref, ["b*c", "c", "r"])),
        "broken.json": '{"label": "x", "generators": [',
        "extra.json": json.dumps({"label": None, "ambient_d": 0,
                                  "generators": [], "differential": [],
                                  "colour": "red"}),
        # piecewise-linear function files, with a stray key and short one
        "pl_extra.json": json.dumps({"breakpoints": ["0", "2"],
                                     "values": ["0", "0"], "colour": "red"}),
        "pl_short.json": json.dumps({"breakpoints": ["0", "2"]}),
    }
    for name, text in files.items():
        (where / name).write_text(text, encoding="utf-8")


CLI_RUNS = [
    ["build", "unknot"], ["build", "trefoil"], ["build", "trefoil-left"],
    ["build", "figure8"], ["build", "torus:3,4"], ["build", "torus:2,-5"],
    ["build", "staircase:1,2"], ["build", "chen-cable:8"],
    ["build", "granny"], ["build", "torus:1,3"], ["build", "torus:2,x"],
    ["build", "chen-cable:7"],
    ["upsilon", "trefoil"], ["upsilon", "figure8"], ["upsilon", "torus:3,5"],
    ["upsilon", "torus:5,-7"], ["upsilon", "trefoil.json"],
    ["upsilon", "chen.json"], ["upsilon", "bad.json"],
    ["upsilon", "rank2.json"], ["upsilon", "ghost.json"],
    ["upsilon", "nothere.json"], ["upsilon", "broken.json"],
    ["upsilon", "extra.json"], ["upsilon", "pl_extra.json"],
    ["upsilon", "pl_short.json"], ["upsilon", "--file", "trefoil"],
    ["tau", "trefoil"], ["tau", "torus:3,-4"], ["tau", "chen-cable:9"],
    ["tau", "fig8.json"], ["tau", "rank2.json"],
    ["tensor", "trefoil", "trefoil"], ["tensor", "trefoil", "figure8"],
    ["tensor", "torus:2,5", "trefoil-left"],
    ["tensor", "trefoil.json", "fig8.json"],
    ["tensor", "trefoil", "chen-cable:8"], ["tensor", "trefoil", "bad.json"],
    ["tensor", "ghost.json", "trefoil"],
    ["tensor", "clash_a.json", "clash_b.json"],
    ["dual", "trefoil"], ["dual", "figure8"], ["dual", "torus:3,4"],
    ["dual", "trefoil.json"], ["dual", "bad.json"],
    ["validate", "trefoil"], ["validate", "bad.json"],
    ["validate", "rank2.json"], ["validate", "fig8.json"],
    ["validate", "ghost.json"], ["validate", "chen.json"],
    ["certify-rv", "trefoil"], ["certify-rv", "chen-cable:8"],
    ["certify-rv", "trefoil.json"],
    ["certify-rv", "trefoil.json", "--genus", "1"],
    ["certify-rv", "trefoil.json", "--genus", "2"],
    ["certify-rv", "figure8"], ["certify-rv", "staircase:1,2"],
    ["certify-rv", "chen.json", "--genus", "10"],
    ["classify-tight", "trefoil"], ["classify-tight", "chen-cable:8"],
    ["classify-tight", "trefoil-left"], ["classify-tight", "figure8"],
    ["obstruct", "trefoil", "unknot"], ["obstruct", "trefoil", "trefoil"],
    ["obstruct", "chen-cable:8", "chen-cable:9"],
    ["obstruct", "torus:3,5", "torus:2,-5"],
    ["obstruct", "figure8", "unknot"],
    ["ribbon-report", "trefoil"], ["ribbon-report", "figure8"],
    ["ribbon-report", "chen.json"], ["ribbon-report", "chen-cable:8"],
    ["sample", "trefoil", "1/4"], ["sample", "chen-cable:8", "1/3"],
    ["sample", "trefoil", "0"], ["sample", "trefoil", "-1/2"],
    [], ["upsilon", "trefoil", "--bogus"],
    ["upsilon", "torus:2,999999999999"],
    ["tensor", "torus:2,1001", "torus:2,1001"],
]
# runs reading stdin: (argv, the file whose text is fed in)
STDIN_RUNS = [(["upsilon", "-"], "trefoil.json"),
              (["validate", "-"], "bad.json")]


def cli_line(argv, stdin_text=None) -> str:
    """One in-process CLI run in the current directory, as a line."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli_main(list(argv))
    finally:
        sys.stdin = old_stdin
    return _dumps({"cli": argv, "exit": rc, "stdout": out.getvalue(),
                   "stderr": err.getvalue()})


def cli_lines(where: Path) -> list[str]:
    """Every CLI run in where, after write_inputs; the working directory and
    COLUMNS (argparse wraps its usage lines to it) are restored after."""
    write_inputs(where)
    here, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    os.chdir(where)
    try:
        lines = [cli_line(argv) for argv in CLI_RUNS]
        lines += [cli_line(argv, (where / name).read_text(encoding="utf-8"))
                  for argv, name in STDIN_RUNS]
    finally:
        os.chdir(here)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return lines


def golden_lines(where: Path) -> list[str]:
    return ([complex_line(case, c) for case, c in complex_cases()]
            + cli_lines(where))


def main():
    with tempfile.TemporaryDirectory() as where:
        lines = golden_lines(Path(where))
    GOLDEN.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print("wrote %d lines to %s" % (len(lines), GOLDEN))


if __name__ == "__main__":
    main()
