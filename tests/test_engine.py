"""Upsilon engine: weights, nu, the piecewise-linear assembly, tau, jumps."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import knotupsilon as ku
import knotupsilon.complexes
import knotupsilon.engine
from knotupsilon import BifilteredComplex, Generator, LatticePoint, PLFunction
from knotupsilon.gf2 import BitEchelon

from helpers import (brute_force_nu, chain_boundary, check_segment_certificate,
                     check_symmetry, corpus, filtration_value, nu_at_halfplane,
                     random_admissible_complex, sampled_realizers,
                     torus_upsilon, vertical_tau)

SAMPLE_TS = [F(0), F(1, 4), F(1, 2), F(2, 3), F(1), F(4, 3), F(7, 4), F(2)]


# -- filtration weights: the oracles' Fraction form in helpers


def test_weight_at_zero_is_algebraic_level():
    assert filtration_value(0, LatticePoint("x", 3, 7)) == 3


def test_weight_at_one_is_average():
    assert filtration_value(1, LatticePoint("x", 2, 5)) == F(7, 2)


def test_weight_two_thirds():
    assert filtration_value(F(2, 3), LatticePoint("c", 1, 0)) == F(2, 3)


def test_weight_rejects_out_of_range():
    with pytest.raises(ValueError):
        filtration_value(F(5, 2), LatticePoint("x", 0, 0))
    with pytest.raises(ValueError):
        filtration_value(-1, LatticePoint("x", 0, 0))


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
    with pytest.raises(ValueError, match=r"^parameter 3 outside \[0, 2\]$"):
        ku.nu_at(t, 3)


def test_nu_certificate_invariants():
    for _, c in corpus():
        for t in (F(1, 2), F(1)):
            cert = ku.nu_at(c, t)
            for p in cert.cycle:
                assert filtration_value(t, p) <= cert.nu
            assert cert.realizing_points
            for p in cert.realizing_points:
                assert filtration_value(t, p) == cert.nu
            # the witness is a boundaryless cycle of the ambient grading
            assert chain_boundary(c, cert.cycle) == []
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


# t = a/b with any denominator b in 1..10**12, reduced: large, odd and even
PARAMETERS = st.integers(1, 10**12).flatmap(
    lambda b: st.integers(0, 2 * b).map(lambda a: F(a, b)))


@settings(derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=PARAMETERS)
@example(seed=0, t=F(1, 3))
@example(seed=1, t=F(1999999873, 999999937))
def test_nu_integer_keys_match_fraction_weights(seed, t):
    # nu_at scans on 2b-scaled integer keys; the oracle and the checks
    # here weigh with the Fraction form
    c = random_admissible_complex(random.Random(seed), "h")
    cert = ku.nu_at(c, t)
    assert cert.nu == nu_at_halfplane(c, t)
    assert cert.realizing_points
    for p in cert.realizing_points:
        assert filtration_value(t, p) == cert.nu
    for p in cert.cycle:
        assert filtration_value(t, p) <= cert.nu


def test_nu_rejects_non_admissible():
    c = BifilteredComplex([Generator("x", 0, 0), Generator("y", 0, 0)], [], 0)
    for route in (lambda: ku.nu_at(c, 1), lambda: ku.upsilon(c)):
        with pytest.raises(ku.NonAdmissibleError) as exc:
            route()
        assert str(exc.value) == ("non-admissible: homology has dimension "
                                  "2 != 1 in grading 0")
    with pytest.raises(ku.NonAdmissibleError):
        nu_at_halfplane(c, 1)


def test_slice_is_built_once_per_complex(monkeypatch):
    # require_admissible builds the ambient slice, its boundaries and the
    # distinguished cycle once, or its refusal; every later entry point
    # reads that record.  The d^2 check and require_admissible read one
    # matrix, built once.
    calls, reads = [], []
    real = knotupsilon.complexes.kernel_basis
    real_matrix = BifilteredComplex._matrix

    def counted(columns):
        calls.append(1)
        return real(columns)

    def counted_matrix(self):
        reads.append((self, real_matrix(self)))
        return reads[-1][1]

    monkeypatch.setattr(knotupsilon.complexes, "kernel_basis", counted)
    monkeypatch.setattr(BifilteredComplex, "_matrix", counted_matrix)
    c = ku.tensor(ku.torus_knot_complex(3, 4), ku.torus_knot_complex(2, 3))
    reads.clear()
    assert ku.validate(c).ok
    f = ku.upsilon(c)
    assert ku.tau(c) == 4
    for t in (F(1, 3), F(1), F(5, 3)):
        assert ku.nu_at(c, t).nu == -f(t) / 2
    assert all(check.passed for check in ku.jump_report(c, f))
    assert len(calls) == 1
    (c1, m1), (c2, m2) = reads
    assert c1 is c2 is c and m1 is m2

    # the trefoil plus one generator: refused, and refused from the record
    tref = ku.torus_knot_complex(2, 3)
    extra = BifilteredComplex(tref.generators + (Generator("e", 0, 0),),
                              tref.differential)
    msg = "non-admissible: homology has dimension 2 != 1 in grading 0"
    calls.clear()
    assert ku.validate(extra).violations == (msg,)
    for route in [lambda t=t: ku.nu_at(extra, t) for t in (0, 1, 2)] + [
            lambda: ku.upsilon(extra)]:
        with pytest.raises(ku.NonAdmissibleError, match="^%s$" % msg):
            route()
    assert len(calls) == 1


def test_slice_keeps_independent_boundaries():
    # about half the boundary columns of a sum are dependent; the slice
    # keeps the ones its echelon found independent, a basis of the span
    c = ku.tensor(ku.torus_knot_complex(3, 4), ku.torus_knot_complex(2, -3))
    s = ku.require_admissible(c)
    cols = c._matrix().cols[1 - c.ambient_d % 2]
    assert len(s.boundaries) == s.echelon.rank < len(cols)
    assert not any(s.echelon.reduce(w) for w in cols)
    assert BitEchelon(s.boundaries).rank == s.echelon.rank


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


@pytest.mark.parametrize("knots", [
    [(8, 23)], [(11, 23)], [(10, 21)], [(6, 23)], [(4, 21)], [(13, 29)],
    [(17, 31)],
    [(3, 7), (3, -5)], [(4, 9), (3, -4)], [(3, 7), (3, -5), (2, 3)],
], ids=lambda ks: "#".join("T(%d,%d)" % k for k in ks))
def test_upsilon_torus_semigroup_formula(knots):
    # the oracle is convex, so agreeing with it at every breakpoint and
    # segment midpoint of a piecewise-linear f determines f
    c = ku.torus_knot_complex(*knots[0])
    for pq in knots[1:]:
        c = ku.tensor(c, ku.torus_knot_complex(*pq))
    f = ku.upsilon(c)
    bps = f.breakpoints
    for t in bps + tuple((a + b) / 2 for a, b in zip(bps, bps[1:])):
        assert f(t) == sum(torus_upsilon(p, q, t) for p, q in knots), t


def _torus_upsilon_function(p, q):
    if q == 1:
        return ku.upsilon(ku.unknot_complex())
    return ku.upsilon(ku.torus_knot_complex(min(p, q), max(p, q)))


def test_upsilon_feller_krcatovich_recursion():
    # Feller-Krcatovich (2017): Upsilon_T(p,q) = Upsilon_T(p,q-p) +
    # Upsilon_T(p,p+1) for 0 < p < q; T(p,1) is the unknot and T(p,q-p)
    # with q - p < p is T(q-p,p).  Exercises PL addition on real upsilons.
    cases = [(p, q) for p in range(2, 9) for q in range(p + 1, 4 * p + 3)
             if gcd(p, q) == 1]
    assert len(cases) == 73
    for p, q in cases:
        assert _torus_upsilon_function(p, q) == (
            _torus_upsilon_function(p, q - p)
            + _torus_upsilon_function(p, p + 1)), (p, q)


def test_upsilon_asymmetric_staircase():
    # not a knot model; exercises the assembly on an asymmetric complex
    c = ku.staircase([1, 2])
    f = ku.upsilon(c)
    assert f == PLFunction([0, F(2, 3), 2], [0, F(-2, 3), 2])
    assert not check_symmetry(f)


# -- symmetry


def test_symmetry_on_corpus():
    for _, c in corpus():
        assert check_symmetry(ku.upsilon(c))


def test_symmetry_rejects_line():
    assert not check_symmetry(PLFunction([0, 2], [0, -2]))


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
            bd = chain_boundary(c, chain)
            if not bd:
                continue
            for t in ts:
                assert (max(filtration_value(t, p) for p in bd)
                        <= max(filtration_value(t, p) for p in chain))


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
    rng = random.Random(7)
    randoms = [random_admissible_complex(rng, "j%d" % k) for k in range(20)]
    for c in [c for _, c in corpus()] + randoms:
        f = ku.upsilon(c)
        checks = ku.jump_report(c, f)
        assert all(ch.passed for ch in checks)
        for ch in checks:
            assert sampled_realizers(c, ch.t0) == [{ch.left_point},
                                                   {ch.right_point}]


def test_jump_report_evaluates_nothing(monkeypatch):
    def refuse(c, t):
        raise AssertionError("jump_report evaluated nu at %s" % t)

    for c in (ku.torus_knot_complex(3, 7),
              ku.tensor(ku.torus_knot_complex(3, 5),
                        ku.torus_knot_complex(2, -3))):
        f = ku.upsilon(c)
        with monkeypatch.context() as m:
            m.setattr(knotupsilon.engine, "nu_at", refuse)
            checks = ku.jump_report(c, f)
        assert checks and all(ch.passed for ch in checks)


@pytest.mark.parametrize("p,q", [(2, 5), (3, 4)])
def test_jump_report_flags_upsilon_of_another_knot(p, q):
    # T(3,4) breaks at 2/3 and 4/3, off the trefoil's candidate grid
    trefoil = ku.torus_knot_complex(2, 3)
    checks = ku.jump_report(trefoil, ku.upsilon(ku.torus_knot_complex(p, q)))
    assert any(not ch.passed for ch in checks)


def test_upsilon_self_check_reads_both_ends(monkeypatch):
    # upsilon proves each segment from the scan's cycle r and cocycle phi;
    # a scan that drops a point from either, or names another point of r
    # as the realizer, must not get past that check at one end or the other.
    # On T(3,-4) every r holds three coordinates, so the realizer can move.
    def drop_from_cycle(top, r, phi):
        return top, r ^ 1 << top, phi

    def drop_from_cocycle(top, r, phi):
        return top, r, phi ^ 1 << top

    def move_realizer(top, r, phi):
        return (r & -r).bit_length() - 1, r, phi

    real = knotupsilon.engine._filtered_scan
    for corrupt in (drop_from_cycle, drop_from_cocycle, move_realizer):
        with monkeypatch.context() as m:
            m.setattr(knotupsilon.engine, "_filtered_scan",
                      lambda *args, corrupt=corrupt: corrupt(*real(*args)))
            with pytest.raises(AssertionError, match="^nu not linear"):
                ku.upsilon(ku.torus_knot_complex(3, -4))


def test_upsilon_one_scan_per_segment(monkeypatch):
    # a machine-independent guard on the sweep's cost: T(13,29) has 15
    # certified segments, each proved by one scan, and nu_at is not used
    def refuse(c, t):
        raise AssertionError("upsilon evaluated nu_at at %s" % t)

    real = knotupsilon.engine._filtered_scan
    scans = 0

    def counted(*args):
        nonlocal scans
        scans += 1
        return real(*args)

    monkeypatch.setattr(knotupsilon.engine, "nu_at", refuse)
    monkeypatch.setattr(knotupsilon.engine, "_filtered_scan", counted)
    c = ku.torus_knot_complex(13, 29)
    ku.upsilon(c)
    grid = c._sweep.grid
    assert scans <= len(grid) - 1 <= 15


def test_segment_certificates_check_out():
    rng = random.Random(11)
    complexes = ([c for _, c in corpus()]
                 + [random_admissible_complex(rng, "s%d" % k)
                    for k in range(20)]
                 + [ku.torus_knot_complex(17, 31)])
    for c in complexes:
        f = ku.upsilon(c)
        sweep = c._sweep
        for k, (p, (cycle, cocycle)) in enumerate(zip(sweep.realizers,
                                                      sweep.witnesses)):
            ends = (sweep.grid[k], sweep.grid[k + 1])
            assert check_segment_certificate(c, ends, p, cycle, cocycle)
            for t in ends:
                assert f(t) == -2 * filtration_value(t, p)


def _rebuilt_through_constructor(c):
    # upsilon at each grid point from the realizer of the segment starting
    # there, and at 2 from the last one, through the validating constructor
    ku.upsilon(c)
    grid, realizers = c._sweep.grid, c._sweep.realizers
    values = [-2 * filtration_value(t, p) for t, p in zip(grid, realizers)]
    values.append(-2 * filtration_value(2, realizers[-1]))
    return PLFunction(grid, values)


def test_upsilon_equals_validated_rebuild():
    # the sweep assembles its canonical function from integer slopes; the
    # constructor re-derives breakpoints, values and slopes from Fractions
    named = dict(corpus())
    small = [named[n] for n in ("trefoil", "trefoil-left", "T(2,5)",
                                "T(2,-5)", "T(2,7)", "T(3,4)", "T(3,7)",
                                "figure8")]
    rng = random.Random(5)
    complexes = ([c for _, c in corpus()]
                 + [ku.tensor(a, b) for a in small for b in small]
                 + [random_admissible_complex(rng, "w%d" % k)
                    for k in range(200)]
                 + [ku.torus_knot_complex(17, 31)])
    assert len(complexes) == 14 + 64 + 200 + 1
    for c in complexes:
        f, g = ku.upsilon(c), _rebuilt_through_constructor(c)
        assert g == f and g.slopes == f.slopes


@pytest.mark.parametrize("knots,scans,pieces", [
    ([(3, 5), (2, -3)], 4, 3), ([(3, 7), (3, -7)], 6, 1),
], ids=["T(3,5)#T(2,-3)", "T(3,7)#T(3,-7)"])
def test_upsilon_merges_collinear_segments(knots, scans, pieces):
    c = ku.tensor(*(ku.torus_knot_complex(*pq) for pq in knots))
    f = ku.upsilon(c)
    assert len(c._sweep.grid) - 1 == scans
    assert len(f.slopes) == pieces
    g = _rebuilt_through_constructor(c)
    assert g == f and g.slopes == f.slopes


def test_upsilon_runs_no_validating_constructor(monkeypatch):
    # a machine-independent guard on the sweep's cost: the canonical
    # function is assembled from the realizers, not validated again
    complexes = (ku.torus_knot_complex(13, 29),
                 ku.tensor(ku.torus_knot_complex(3, 5),
                           ku.torus_knot_complex(2, -3)))
    real = PLFunction.__init__
    calls = 0

    def counted(self, *args):
        nonlocal calls
        calls += 1
        real(self, *args)

    monkeypatch.setattr(PLFunction, "__init__", counted)
    for c in complexes:
        ku.upsilon(c)
    assert calls == 0
    PLFunction.zero()  # the counter sees the constructor
    assert calls == 1


def test_upsilon_refuses_realizers_that_disagree(monkeypatch):
    # with the segment check off, a realizer moved on the second scan of
    # T(3,4) weighs more than the first one where the two segments meet
    real = knotupsilon.engine._filtered_scan
    scans = 0

    def second_moved(*args):
        nonlocal scans
        scans += 1
        top, r, phi = real(*args)
        return (phi.bit_length() - 1 if scans == 2 else top), r, phi

    monkeypatch.setattr(knotupsilon.engine, "_check_segment",
                        lambda *args: None)
    monkeypatch.setattr(knotupsilon.engine, "_filtered_scan", second_moved)
    with pytest.raises(AssertionError, match="^nu jumps at 2/3$"):
        ku.upsilon(ku.torus_knot_complex(3, 4))


def test_segment_certificate_oracle_rejects_broken_witness():
    c = ku.torus_knot_complex(3, 4)
    ku.upsilon(c)
    grid = c._sweep.grid
    p, (cycle, cocycle) = c._sweep.realizers[0], c._sweep.witnesses[0]
    ends = (grid[0], grid[1])
    assert check_segment_certificate(c, ends, p, cycle, cocycle)
    assert not check_segment_certificate(c, ends, p, cycle, ())
    assert not check_segment_certificate(c, ends, p, cycle[1:], cocycle)
    assert not check_segment_certificate(c, ends, p, cycle, cocycle[1:])
    later = (grid[0], grid[2])  # past the first certified segment
    assert not check_segment_certificate(c, later, p, cycle, cocycle)


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
    # tau is read off upsilon's first segment; the oracle reads it off the
    # vertical complex, on the corpus and on every ordered corpus tensor
    knots = [c for _, c in corpus()]
    for c in knots + [ku.tensor(a, b) for a in knots for b in knots]:
        assert ku.tau(c) == vertical_tau(c) == -ku.upsilon(c).initial_slope


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1))
def test_tau_matches_vertical_complex_on_random_complexes(seed):
    c = random_admissible_complex(random.Random(seed), "v")
    assert ku.tau(c) == vertical_tau(c)


def test_tau_of_torus_knot_is_genus():
    pairs = [(p, q) for q in range(3, 24) for p in range(2, q)
             if gcd(p, q) == 1]
    for p, q in pairs + [(13, 29), (17, 31)]:
        genus = (p - 1) * (q - 1) // 2
        assert ku.tau(ku.torus_knot_complex(p, q)) == genus
        assert ku.tau(ku.torus_knot_complex(p, -q)) == -genus


def test_knot_sum_mirror_is_slice():
    # K # -K is slice: upsilon vanishes and tau is 0, at sizes far past
    # brute force (T(5,7) # -T(5,7) has 289 generators)
    knots = ([c for _, c in corpus()]
             + [ku.torus_knot_complex(4, 9), ku.torus_knot_complex(5, 7)])
    for c in knots:
        s = ku.tensor(c, ku.dual(c))
        assert ku.upsilon(s).is_zero()
        assert ku.tau(s) == vertical_tau(s) == 0


def test_tau_rejects_nonzero_ambient():
    c = BifilteredComplex([Generator("v", 0, 2)], [], 2)
    with pytest.raises(ku.NonAdmissibleError) as exc:
        ku.tau(c)
    assert str(exc.value) == "tau requires ambient grading 0, got 2"


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
