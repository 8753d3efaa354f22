"""Every subcommand holds to its contract on random and transformed inputs.

Metamorphic checks: upsilon is a property of the complex, not of how it
is written down.  Shuffling the generators and the entries, through the
public constructor, changes every position the matrix and the sweep
read, and so whether the sweep gets a flip; upsilon, its slopes and tau
stay, and every witness the sweep keeps for the shuffled complex
re-proves with check_segment_certificate, which reads only the
differential list.  A filtered change of basis or a cancelling pair
(helpers.scrambled) keeps the bifiltered homotopy type while it makes the
complex dense and unreduced; the same holds of the scrambled complex at
benchmark scale and of scrambled random admissible complexes.
tensor commutes, and a direct sum with an acyclic box changes nothing:
each witness of the summand, extended by zero, proves its segment of the
sum too.

CLI contract: random small complexes, valid or not, admissible or not,
run in-process through cli.main with every subcommand.  Each run returns
0, 1 or 2 and raises nothing; each nonzero exit writes exactly one
"error:" line to stderr, except validate, whose report is its output.
"""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from math import gcd
from unittest import mock

from hypothesis import given, settings, strategies as st

import knotupsilon as ku
from knotupsilon.cli import main

from helpers import (check_segment_certificate, random_admissible_complex,
                     random_staircase, scrambled, sum_tower_chains,
                     swept_segments)


def shuffled(c, rng):
    """c through the public constructor, its generators and its entries
    each in a random order."""
    gens, diff = list(c.generators), list(c.differential)
    rng.shuffle(gens)
    rng.shuffle(diff)
    return ku.BifilteredComplex(gens, diff, c.ambient_d, c.label)


def products():
    """Five connected sums, up to T(17,31)#T(2,5)."""
    torus = ku.torus_knot_complex
    return [reduce(ku.tensor, factors) for factors in (
        [torus(2, 3), torus(2, 3)],
        [torus(3, 4), torus(3, -4)],
        [torus(5, 7), ku.figure_eight_complex()],
        [torus(4, 5), torus(2, 3), torus(2, -5)],
        [torus(17, 31), torus(2, 5)])]


def test_shuffled_complexes_keep_upsilon_and_their_witnesses_prove_it():
    rng = random.Random(26)
    cases = [random_admissible_complex(rng, "m%d" % k) for k in range(200)]
    for c in cases + products():
        f, tau = ku.upsilon(c), ku.tau(c)
        for _ in range(2):
            s = shuffled(c, rng)
            g = ku.upsilon(s)
            assert (g, g.slopes, ku.tau(s)) == (f, f.slopes, tau), c
            for ends, p, cycle, cocycle in swept_segments(s):
                assert check_segment_certificate(s, ends, p, cycle,
                                                 cocycle), (c, ends)


def test_scrambled_complexes_keep_upsilon_and_their_witnesses_prove_it():
    # at benchmark scale: the torus knots up to T(5,7), their mirrors and
    # the sum-tower chains, each under filtered changes of basis with
    # cancelling pairs summed on: 160 complexes, up to 4,000 entries.
    # Then 60 random admissible complexes, scrambled twice each: 120
    # dense, unreduced complexes of up to 114 entries
    torus = [(p, q) for p in range(2, 6) for q in range(p + 1, 8)
             if gcd(p, q) == 1]
    rng = random.Random(17)
    pool = ([(c, ((10, 2), (30, 3), (60, 4), (120, 6))) for c in
             [ku.torus_knot_complex(p, q) for p, q in torus]
             + [ku.torus_knot_complex(p, -q) for p, q in torus]
             + list(sum_tower_chains())]
            + [(random_admissible_complex(rng, "r%d" % k), ((10, 2), (40, 4)))
               for k in range(60)])
    assert len(pool) == 100
    rng = random.Random(31)
    for c, grid in pool:
        f, tau = ku.upsilon(c), ku.tau(c)
        for changes, pairs in grid:
            s = scrambled(c, rng, changes, pairs)
            assert ku.validate(s).ok, c
            g = ku.upsilon(s)
            assert (g, g.slopes, ku.tau(s)) == (f, f.slopes, tau), c
            for ends, p, cycle, cocycle in swept_segments(s):
                assert check_segment_certificate(s, ends, p, cycle,
                                                 cocycle), (c, ends)


def test_tensor_commutes_and_a_box_changes_nothing():
    rng = random.Random(2026)
    for k in range(60):
        a, b = random_staircase(rng), random_staircase(rng)
        ab = ku.tensor(a, b)
        f = ku.upsilon(ab)
        assert ku.upsilon(ku.tensor(b, a)) == f, (a, b)
        box = ku.box_complex("b%d." % k, rng.randint(-2, 2),
                             rng.randint(-2, 2))
        boxed = ku.direct_sum(ab, box)
        assert ku.upsilon(boxed) == f, (a, b, box)
        for ends, p, cycle, cocycle in swept_segments(ab):
            assert check_segment_certificate(boxed, ends, p, cycle, cocycle)


# -- the CLI contract


@st.composite
def small_complexes(draw):
    """1-7 generators with A in -2..2 and M in -3..3.  Each entry the
    Maslov rule M(t) = M(s) - 1 + 2k and the Alexander rule
    A(s) - A(t) + k >= 0 allow is kept with probability about 1/2, and
    the ambient grading is 0 three times in five, else 2 or -2."""
    gens = [ku.Generator("g%d" % x, draw(st.integers(-2, 2)),
                         draw(st.integers(-3, 3)))
            for x in range(draw(st.integers(1, 7)))]
    allowed = [(s, t, (t.maslov - s.maslov + 1) // 2)
               for s in gens for t in gens
               if (t.maslov - s.maslov) % 2 and t.maslov >= s.maslov - 1]
    diff = [(s.name, t.name, k) for s, t, k in allowed
            if s.alexander - t.alexander + k >= 0 and draw(st.booleans())]
    d = draw(st.sampled_from([0, 0, 0, 2, -2]))
    return ku.complex_to_json(ku.BifilteredComplex(gens, diff, d))


def cli(argv, stdin):
    """main(argv) in-process with stdin as given: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(text=small_complexes(), genus=st.integers(-1, 3))
def test_every_subcommand_exits_0_1_or_2_with_one_error_line(text, genus):
    g = ["--genus", str(genus)]
    for argv in (["validate", "-"], ["upsilon", "-"], ["tau", "-"],
                 ["dual", "-"], ["certify-rv", "-"] + g,
                 ["classify-tight", "-"] + g, ["ribbon-report", "-"] + g,
                 ["obstruct", "-", "trefoil"], ["sample", "-", "1/3"],
                 ["tensor", "-", "figure8"]):
        rc, out, err = cli(argv, text)
        assert rc in (0, 1, 2), argv
        if argv[0] == "validate":
            assert rc in (0, 1) and err == "", argv
            assert json.loads(out)["ok"] == (rc == 0), argv
        elif rc:
            assert out == "" and err.startswith("error: "), argv
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        else:
            assert out and err == "", argv
