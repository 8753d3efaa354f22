"""Upsilon engine: weights, nu, the piecewise-linear assembly, tau, jumps."""

import random
from fractions import Fraction as F

import pytest

import knotupsilon as ku
from knotupsilon import BifilteredComplex, Generator, LatticePoint, PLFunction

from helpers import (brute_force_nu, corpus, nu_at_halfplane,
                     random_admissible_complex)

SAMPLE_TS = [F(0), F(1, 4), F(1, 2), F(2, 3), F(1), F(4, 3), F(7, 4), F(2)]


# -- filtration weights


def test_weight_at_zero_is_algebraic_level():
    assert ku.filtration_value(0, LatticePoint("x", 3, 7)) == 3


def test_weight_at_one_is_average():
    assert ku.filtration_value(1, LatticePoint("x", 2, 5)) == F(7, 2)


def test_weight_two_thirds():
    assert ku.filtration_value(F(2, 3), LatticePoint("c", 1, 0)) == F(2, 3)


def test_weight_rejects_out_of_range():
    with pytest.raises(ValueError):
        ku.filtration_value(F(5, 2), LatticePoint("x", 0, 0))
    with pytest.raises(ValueError):
        ku.filtration_value(-1, LatticePoint("x", 0, 0))


# -- nu and its certificates


def test_nu_unknot():
    u = ku.unknot_complex()
    for t in SAMPLE_TS:
        cert = ku.nu_at(u, t)
        assert cert.nu == 0
        assert cert.cycle == (LatticePoint("u", 0, 0),)


def test_nu_trefoil_values():
    t = ku.torus_knot_complex(2, 3)
    assert ku.nu_at(t, 1).nu == F(1, 2)
    assert ku.nu_at(t, 0).nu == 0


def test_nu_certificate_invariants():
    for _, c in corpus():
        for t in (F(1, 2), F(1)):
            cert = ku.nu_at(c, t)
            for p in cert.cycle:
                assert ku.filtration_value(t, p) <= cert.nu
            assert cert.realizing_points
            for p in cert.realizing_points:
                assert ku.filtration_value(t, p) == cert.nu
            # the witness is a boundaryless cycle of the ambient grading
            assert ku.chain_boundary(c, cert.cycle) == []
            for p in cert.cycle:
                g = c.generator(p.generator)
                assert g.maslov + 2 * p.i == c.ambient_d


def test_nu_three_routes_agree_spot_check():
    for name, c in corpus():
        if len(ku.grading_slice(c, c.ambient_d)) > 14:
            continue
        for t in (F(0), F(1, 2), F(1), F(7, 4)):
            nu = ku.nu_at(c, t).nu
            assert nu_at_halfplane(c, t) == nu, (name, t)
            assert brute_force_nu(c, t) == nu, (name, t)


def test_nu_rejects_non_admissible():
    c = BifilteredComplex([Generator("x", 0, 0), Generator("y", 0, 0)], [], 0)
    with pytest.raises(ku.NonAdmissibleError):
        ku.nu_at(c, 1)
    with pytest.raises(ku.NonAdmissibleError):
        nu_at_halfplane(c, 1)


def test_brute_force_rejects_large_slice():
    big = ku.tensor(ku.tensor(ku.torus_knot_complex(2, 5),
                              ku.torus_knot_complex(2, 5)),
                    ku.torus_knot_complex(2, 5))
    with pytest.raises(ValueError):
        brute_force_nu(big, 1)


# -- upsilon


def test_upsilon_unknot_zero():
    assert ku.upsilon(ku.unknot_complex()) == PLFunction.zero()


def test_upsilon_trefoil_exact():
    f = ku.upsilon(ku.torus_knot_complex(2, 3))
    assert f == PLFunction([0, 1, 2], [0, -1, 0])


def test_upsilon_left_trefoil_is_negative():
    right = ku.upsilon(ku.torus_knot_complex(2, 3))
    left = ku.upsilon(ku.torus_knot_complex(2, -3))
    assert left == -right
    assert left == PLFunction([0, 1, 2], [0, 1, 0])


def test_upsilon_t25_t27():
    assert ku.upsilon(ku.torus_knot_complex(2, 5)) == PLFunction(
        [0, 1, 2], [0, -2, 0])
    assert ku.upsilon(ku.torus_knot_complex(2, 7)) == PLFunction(
        [0, 1, 2], [0, -3, 0])


def test_upsilon_t34_exact():
    assert ku.upsilon(ku.torus_knot_complex(3, 4)) == PLFunction(
        [0, F(2, 3), F(4, 3), 2], [0, -2, -2, 0])


def test_upsilon_figure_eight_zero():
    assert ku.upsilon(ku.figure_eight_complex()).is_zero()
    assert ku.upsilon(ku.dual(ku.figure_eight_complex())).is_zero()


def test_upsilon_additivity_spot_check():
    t = ku.torus_knot_complex(2, 3)
    f8 = ku.figure_eight_complex()
    assert ku.upsilon(ku.tensor(t, t)) == ku.upsilon(t) + ku.upsilon(t)
    assert ku.upsilon(ku.tensor(t, f8)) == ku.upsilon(t)


def test_upsilon_tensor_brute_force_value():
    # connected sum of two right trefoils at t=1: nu = 1, upsilon = -2
    tt = ku.tensor(ku.torus_knot_complex(2, 3), ku.torus_knot_complex(2, 3))
    assert brute_force_nu(tt, 1) == 1
    assert ku.upsilon(tt)(1) == -2


def test_upsilon_mirror_antisymmetry():
    for _, c in corpus():
        assert ku.upsilon(ku.dual(c)) == -ku.upsilon(c)


def test_upsilon_starts_at_zero_on_corpus():
    for _, c in corpus():
        assert ku.upsilon(c)(0) == 0


def test_upsilon_slope_bound_on_corpus():
    for _, c in corpus():
        bound = max(abs(g.alexander) for g in c.generators)
        assert all(abs(s) <= bound for s in ku.upsilon(c).slopes)


def test_upsilon_asymmetric_staircase():
    # not a knot model; exercises the assembly on an asymmetric complex
    c = ku.staircase([1, 2])
    f = ku.upsilon(c)
    assert f == PLFunction([0, F(2, 3), 2], [0, F(-2, 3), 2])
    assert not ku.check_symmetry(f)


# -- symmetry


def test_symmetry_on_corpus():
    for _, c in corpus():
        assert ku.check_symmetry(ku.upsilon(c))


def test_symmetry_rejects_line():
    assert not ku.check_symmetry(PLFunction([0, 2], [0, -2]))


# -- monotonicity of weights under the differential


def test_boundary_never_raises_weight():
    rng = random.Random(7)
    ts = [F(0), F(1, 3), F(1), F(5, 3), F(2)]
    for _, c in corpus():
        pts = []
        for d in (c.ambient_d, c.ambient_d + 1):
            pts.extend(ku.grading_slice(c, d))
        for _ in range(10):
            chain = [p for p in pts if rng.random() < 0.5]
            if not chain:
                continue
            bd = ku.chain_boundary(c, chain)
            if not bd:
                continue
            for t in ts:
                assert (max(ku.filtration_value(t, p) for p in bd)
                        <= max(ku.filtration_value(t, p) for p in chain))


# -- jump checks


def test_jump_report_unknot_empty():
    u = ku.unknot_complex()
    assert ku.jump_report(u, ku.upsilon(u)) == []


def test_jump_report_t34():
    c = ku.torus_knot_complex(3, 4)
    checks = ku.jump_report(c, ku.upsilon(c))
    assert len(checks) == 2
    assert all(ch.passed for ch in checks)


def test_jump_report_t37_degenerate_but_passing():
    c = ku.torus_knot_complex(3, 7)
    checks = ku.jump_report(c, ku.upsilon(c))
    assert checks and all(ch.passed for ch in checks)
    assert all(ch.degenerate for ch in checks)  # three positions tie at 2/3


def test_jump_report_corpus():
    for _, c in corpus():
        f = ku.upsilon(c)
        assert all(ch.passed for ch in ku.jump_report(c, f))


# -- tau


@pytest.mark.parametrize("build,expected", [
    (ku.unknot_complex, 0),
    (lambda: ku.torus_knot_complex(2, 3), 1),
    (lambda: ku.torus_knot_complex(2, -3), -1),
    (ku.figure_eight_complex, 0),
    (lambda: ku.torus_knot_complex(2, 7), 3),
    (lambda: ku.torus_knot_complex(3, 4), 3),
    (lambda: ku.torus_knot_complex(3, 7), 6),
])
def test_tau_values(build, expected):
    assert ku.tau(build()) == expected


def test_tau_matches_initial_slope():
    for _, c in corpus():
        if c.ambient_d == 0:
            assert ku.tau(c) == -ku.upsilon(c).initial_slope


def test_tau_rejects_nonzero_ambient():
    c = BifilteredComplex([Generator("v", 0, 2)], [], 2)
    with pytest.raises(ku.NonAdmissibleError):
        ku.tau(c)


# -- randomized consistency


def test_random_complexes_three_routes():
    rng = random.Random(2024)
    for k in range(5):
        c = random_admissible_complex(rng, "r%d" % k)
        if len(ku.grading_slice(c, 0)) > 14:
            continue
        for t in (F(1, 3), F(1)):
            nu = ku.nu_at(c, t).nu
            assert nu_at_halfplane(c, t) == nu
            assert brute_force_nu(c, t) == nu
