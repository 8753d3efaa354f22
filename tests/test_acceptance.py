"""Acceptance criteria: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output) including its wall-clock time, and enforces the stated
runtime budget where one exists.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import knotupsilon as ku
from knotupsilon import PLFunction

from helpers import (brute_force_nu, corpus, nu_at_halfplane,
                     random_admissible_complex, random_staircase)


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print("FAIL criterion %d: %s" % (number, description))
        raise
    elapsed = time.perf_counter() - start
    print("PASS criterion %d: %s (%.2fs)" % (number, description, elapsed))
    if budget is not None:
        assert elapsed < budget, "budget %.0fs exceeded: %.2fs" % (budget, elapsed)


def test_criterion_1_trefoil_upsilon():
    with criterion(1, "trefoil upsilon is -t on [0,1], t-2 on [1,2]; "
                      "mirror negates", budget=1.0):
        trefoil = ku.torus_knot_complex(2, 3)
        f = ku.upsilon(trefoil)
        assert f == PLFunction([0, 1, 2], [0, -1, 0])
        assert f(F(1, 2)) == F(-1, 2)
        assert f(F(3, 2)) == F(-1, 2)
        # the values come from the exhaustive oracle
        for t in (F(1, 4), F(1, 2), F(3, 4), F(1)):
            assert f(t) == -2 * brute_force_nu(trefoil, t)
        assert ku.upsilon(ku.torus_knot_complex(2, -3)) == -f
        # slope -genus on [0, 1) certifies right-veering, consistent with
        # the tight fibration: tau equals genus
        assert ku.certify_right_veering(f, 1).certified
        assert ku.classify_tightness(ku.tau(ku.torus_knot_complex(2, 3)), 1) == "tight"


def test_criterion_2_cable_family():
    with criterion(2, "cable family n=8..12: slopes -(n-1), -(n+2); "
                      "certified right-veering; overtwisted", budget=1.0):
        for n in range(8, 13):
            f = ku.chen_cable_upsilon(n)
            segs = f.segments()
            assert segs[0] == (F(0), F(2, 3), -(n - 1))
            assert segs[1] == (F(2, 3), F(1), -(n + 2))
            cert = ku.certify_right_veering(f, n + 2)
            assert cert.certified
            assert cert.witness_interval == (F(2, 3), F(1))
            assert ku.classify_tightness(n - 1, n + 2) == "overtwisted"


def test_criterion_3_additivity_randomized():
    with criterion(3, "upsilon additive over tensor on 50 randomized pairs",
                   budget=30.0):
        rng = random.Random(361)
        fig8 = ku.figure_eight_complex()
        pool = [fig8, ku.dual(fig8)]
        while len(pool) < 12:
            c = random_staircase(rng)
            pool.append(c)
            pool.append(ku.dual(c))
        for _ in range(50):
            c1, c2 = rng.choice(pool), rng.choice(pool)
            assert ku.upsilon(ku.tensor(c1, c2)) == ku.upsilon(c1) + ku.upsilon(c2)


def test_criterion_4_mirror_and_symmetry():
    with criterion(4, "mirror antisymmetry and t <-> 2-t symmetry on the corpus"):
        for name, c in corpus():
            f = ku.upsilon(c)
            assert ku.upsilon(ku.dual(c)) == -f, name
            assert ku.check_symmetry(f), name


def test_criterion_5_oracle_equivalence():
    with criterion(5, "nu_at = nu_at_halfplane = brute_force_nu at eight "
                      "parameters on every small corpus complex", budget=60.0):
        ts = [F(0), F(1, 4), F(1, 2), F(2, 3), F(1), F(4, 3), F(7, 4), F(2)]
        checked = 0
        for name, c in corpus():
            if len(ku.grading_slice(c, c.ambient_d)) > 14:
                continue
            checked += 1
            for t in ts:
                nu = ku.nu_at(c, t).nu
                assert nu_at_halfplane(c, t) == nu, (name, t)
                assert brute_force_nu(c, t) == nu, (name, t)
        assert checked >= 10


def test_criterion_6_randomized_vanishing_and_slope_bound():
    with criterion(6, "upsilon(0)=0 and |slope| <= max|A| on 100 randomized "
                      "admissible complexes"):
        rng = random.Random(1409)
        for k in range(100):
            c = random_admissible_complex(rng, "c%d" % k)
            assert ku.validate(c).ok
            f = ku.upsilon(c)
            assert f(0) == 0
            bound = max(abs(g.alexander) for g in c.generators)
            assert all(abs(s) <= bound for s in f.slopes)


def test_criterion_7_t37_multiple_slopes():
    with criterion(7, "T(3,7) upsilon has at least two slopes on [0,1)"):
        f = ku.upsilon(ku.torus_knot_complex(3, 7))
        slopes_below_one = {s for a, b, s in f.segments() if a < 1}
        assert len(slopes_below_one) >= 2


def test_criterion_8_tau_is_initial_slope():
    with criterion(8, "tau equals minus the initial upsilon slope on the corpus"):
        for name, c in corpus():
            if c.ambient_d != 0:
                continue
            assert ku.tau(c) == -ku.upsilon(c).initial_slope, name


def test_criterion_9_jump_formula():
    with criterion(9, "jump identity holds at every interior breakpoint "
                      "across the corpus"):
        with_breaks = 0
        for name, c in corpus():
            f = ku.upsilon(c)
            checks = ku.jump_report(c, f)
            assert all(ch.passed for ch in checks), name
            if checks:
                with_breaks += 1
        # the two named examples must genuinely exercise the identity
        t34 = ku.torus_knot_complex(3, 4)
        assert len(ku.jump_report(t34, ku.upsilon(t34))) == 2
        big = ku.tensor(ku.tensor(ku.torus_knot_complex(2, 3),
                                  ku.torus_knot_complex(2, 3)),
                        ku.dual(ku.figure_eight_complex()))
        checks = ku.jump_report(big, ku.upsilon(big))
        assert checks and all(ch.passed for ch in checks)
        assert with_breaks >= 2


def test_criterion_10_cable_genus_arithmetic():
    with criterion(10, "cable Alexander polynomial has half-degree n+2 "
                       "for n=8..12"):
        companion = ku.torus_knot_alexander(2, -3)
        for n in range(8, 13):
            delta = ku.cable_alexander(companion, 2, 2 * n + 1)
            assert ku.fibered_genus(delta) == n + 2
