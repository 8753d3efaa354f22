"""Upsilon engine: weights, nu, the piecewise-linear assembly, tau, jumps."""

import random
import tracemalloc
from fractions import Fraction as F
from functools import reduce
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import knotupsilon as ku
import knotupsilon.engine
from knotupsilon import BifilteredComplex, Generator, LatticePoint, PLFunction
from knotupsilon.complexes import require_admissible
from knotupsilon.gf2 import BitEchelon, bits

from helpers import (F8, SUM_TOWER, brute_force_nu, cable_alexander,
                     chain_boundary, check_flip, check_segment_certificate,
                     check_symmetry, corpus, dual_witnesses,
                     filtration_value, lower_hull, nu_at_halfplane,
                     product_witnesses, random_admissible_complex,
                     reference_scan,
                     sampled_realizers, staircase_upsilon, sum_tower_chains,
                     summand, swept_segments, top_degree, torus_alexander,
                     torus_envelope, torus_upsilon, vertical_tau,
                     witnessed_upsilon)

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
            # and the cocycle proves nu from below
            assert check_segment_certificate(c, (t, t),
                                             cert.realizing_points[0],
                                             cert.cycle, cert.cocycle)


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
    # distinguished cycle once; every later entry point reads that record.
    # A build is counted where a complex's _slice leaves None.  A refusal
    # is raised on every call and never kept, so _slice stays None.  The
    # matrix is built once, by require_valid, and require_admissible reads
    # the one it returns: no complex keeps it for a second read.
    builds, reads = [], []
    real_matrix = BifilteredComplex._matrix

    def get_slice(self):
        return self.__dict__["_slice"]

    def set_slice(self, value):
        if self.__dict__.get("_slice") is None and value is not None:
            builds.append(self)
        self.__dict__["_slice"] = value

    def counted_matrix(self):
        reads.append((self, real_matrix(self)))
        return reads[-1][1]

    monkeypatch.setattr(BifilteredComplex, "_slice",
                        property(get_slice, set_slice), raising=False)
    monkeypatch.setattr(BifilteredComplex, "_matrix", counted_matrix)
    c = ku.tensor(ku.torus_knot_complex(3, 4), ku.torus_knot_complex(2, 3))
    reads.clear()
    builds.clear()
    assert ku.validate(c).ok
    f = ku.upsilon(c)
    assert ku.tau(c) == 4
    for t in (F(1, 3), F(1), F(5, 3)):
        assert ku.nu_at(c, t).nu == -f(t) / 2
    assert all(check.passed for check in ku.jump_report(c, f))
    assert builds == [c]
    assert len(reads) == 1
    assert all(d is c and m is reads[0][1] for d, m in reads)

    # the trefoil plus one generator: refused by each route with one
    # message, recomputed on each call, and nothing is kept
    tref = ku.torus_knot_complex(2, 3)
    extra = BifilteredComplex(tref.generators + (Generator("e", 0, 0),),
                              tref.differential)
    msg = "non-admissible: homology has dimension 2 != 1 in grading 0"
    builds.clear()
    assert ku.validate(extra).violations == (msg,)
    for route in [lambda t=t: ku.nu_at(extra, t) for t in (0, 1, 2)] + [
            lambda: ku.upsilon(extra)]:
        with pytest.raises(ku.NonAdmissibleError, match="^%s$" % msg):
            route()
    assert builds == [] and extra._slice is None


def test_slice_keeps_independent_boundaries():
    # about half the boundary columns of a sum are dependent; the slice
    # keeps the ones its echelon found independent, a basis of the span
    c = ku.tensor(ku.torus_knot_complex(3, 4), ku.torus_knot_complex(2, -3))
    s = require_admissible(c)
    cols = c._matrix().cols[1 - c.ambient_d % 2]
    assert len(s.boundaries) == s.echelon.rank < len(cols)
    assert not any(s.echelon.reduce(w) for w in cols)
    # kept as supports, lists of slice positions, each one of the columns
    masks = [sum(1 << x for x in b) for b in s.boundaries]
    assert all(b == sorted(b) and w in cols
               for b, w in zip(s.boundaries, masks))
    assert BitEchelon(masks).rank == s.echelon.rank


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


def torus_ladder():
    """The torus-ladder workload's 77 torus knots (p, q)."""
    pool = [(p, q) for p in range(2, 12) for q in range(p + 1, 24)
            if gcd(p, q) == 1
            and len(ku.torus_knot_complex(p, q).generators) <= 41]
    assert len(pool) == 77
    return pool


def test_upsilon_additive_on_sum_tower_chains():
    # each chain bare and with its boxes, one where it lists none: the
    # boxes enter the slice but leave upsilon alone, and the summands'
    # upsilon add through PLFunction.__add__.  Each witness of the bare
    # chain, extended by zero, proves its segment on the boxed one too.
    assert len(SUM_TOWER) == 20
    for tokens, boxes in SUM_TOWER:
        want = reduce(PLFunction.__add__,
                      [ku.upsilon(summand(t)) for t in tokens])
        bare = c = reduce(ku.tensor, map(summand, tokens))
        assert ku.upsilon(c) == want, tokens
        for k in range(boxes or 1):
            c = ku.direct_sum(c, ku.box_complex("box%d." % k, k % 2, 0),
                              c.label)
        assert ku.upsilon(c) == want, (tokens, boxes)
        assert proved_upsilon(c, swept_segments(bare))[0] == want, tokens


def proved_upsilon(c, segments):
    """The upsilon the witnesses prove on c, each segment re-proved off
    c's differential list, and the number of segments."""
    segments = list(segments)
    for ends, p, cycle, cocycle in segments:
        assert check_segment_certificate(c, ends, p, cycle, cocycle), ends
    return witnessed_upsilon(segments), len(segments)


def test_witnesses_travel_through_tensor_and_dual():
    # every intermediate product of the sum-tower chains, without their
    # boxes, and a product of torus knots of 1,205 generators; then each
    # one's mirror.  The engine sweeps the factors and the products, never
    # the mirrors, and no witness on a result comes from its own sweep.
    grids, proved = {}, 0
    for tokens in [tokens for tokens, _ in SUM_TOWER] + [[(17, 31), (2, 5)]]:
        c = summand(tokens[0])
        for k in range(1, len(tokens)):
            factor = summand(tokens[k])
            product = ku.tensor(c, factor)
            want = ku.upsilon(c) + ku.upsilon(factor)
            f, n = proved_upsilon(product, product_witnesses(c, factor))
            assert f == want == ku.upsilon(product), tokens[:k + 1]
            swept, proved = len(product._sweep.witnesses), proved + 1
            grids[tuple(tokens[:k + 1])] = n, swept, len(f.slopes)
            mirror, m = proved_upsilon(ku.dual(product),
                                       dual_witnesses(product))
            assert mirror == -want and m == swept
            c = product
    # (merged grid, sweep, function) segment counts: the merged grid can
    # be finer or coarser than the sweep's, and either finer than the
    # function, so functions are compared, not grids.  Past t = 1 the sweep
    # keeps the exact mirrors of its segments below, so its grid there is
    # 2 minus the grid below
    assert grids[(3, 7), (3, -5), (2, 3)] == (6, 6, 3)
    assert grids[(3, 7), (3, -7)] == (3, 6, 1)
    assert proved == 45


def test_a_moved_witness_point_is_refused():
    t = ku.torus_knot_complex(2, 3)
    c = ku.tensor(ku.tensor(t, t), ku.figure_eight_complex())
    segments = list(product_witnesses(ku.tensor(t, t),
                                      ku.figure_eight_complex()))
    points = ku.grading_slice(c, c.ambient_d)
    for ends, p, cycle, cocycle in segments:
        assert check_segment_certificate(c, ends, p, cycle, cocycle)
        for k in range(len(cycle)):
            moved = next(q for q in points if q not in cycle)
            assert not check_segment_certificate(
                c, ends, p, cycle[:k] + (moved,) + cycle[k + 1:], cocycle)
        for k in range(len(cocycle)):
            moved = next(q for q in points if q not in cocycle)
            assert not check_segment_certificate(
                c, ends, p, cycle, cocycle[:k] + (moved,) + cocycle[k + 1:])


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


def breakpoints_and_midpoints(f):
    """Where a convex oracle must agree with the PL function f to equal
    it: on each segment it then touches the chord at an inner point."""
    bps = f.breakpoints
    return bps + tuple((a + b) / 2 for a, b in zip(bps, bps[1:]))


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
    for t in breakpoints_and_midpoints(f):
        assert f(t) == sum(torus_upsilon(p, q, t) for p, q in knots), t


def test_semigroup_envelope_is_the_pointwise_formula():
    # torus_envelope, the upper envelope built whole, against torus_upsilon,
    # the maximum of the same lines at each t, at sizes where that is
    # cheap: both are convex, so agreeing at every breakpoint and midpoint
    # of the envelope makes them equal
    for p in range(2, 9):
        for q in [q for q in range(p + 1, 24) if gcd(p, q) == 1]:
            for sq in (q, -q):
                f = torus_envelope(p, sq)
                for t in breakpoints_and_midpoints(f):
                    assert f(t) == torus_upsilon(p, sq, t), (p, sq, t)


@pytest.mark.parametrize("knots", [
    [(61, 97)], [(61, -97)], [(151, 211)], [(2, 40001)],
    [(13, 29), (11, 23)], [(13, 29), (11, -23)],
], ids=lambda ks: "#".join("T(%d,%d)" % k for k in ks))
def test_upsilon_is_the_semigroup_envelope_at_scale(knots):
    # the sweep against the closed form at the sizes where carried
    # segments read the cocycle's hull hundreds of times: upsilon and its
    # slopes are the envelope's, or the sum of the factors' on a product
    c = reduce(ku.tensor, [ku.torus_knot_complex(*pq) for pq in knots])
    f = ku.upsilon(c)
    g = reduce(PLFunction.__add__, [torus_envelope(*pq) for pq in knots])
    assert f == g and f.slopes == g.slopes


def test_nu_at_agrees_with_upsilon_at_benchmark_scale():
    # nu_at sorts on plain weights, the sweep on weight * span + (j - i):
    # at every breakpoint and midpoint of the torus-ladder knots and the
    # sum-tower chains the two key forms give the same nu
    complexes = [ku.torus_knot_complex(p, q) for p, q in torus_ladder()]
    complexes += list(sum_tower_chains())
    assert len(complexes) == 97
    for c in complexes:
        f = ku.upsilon(c)
        for t in breakpoints_and_midpoints(f):
            assert ku.nu_at(c, t).nu == -f(t) / 2, (c.label, t)


def staircase_steps(c):
    """The steps of a staircase complex, read off its Alexander gradings."""
    alex = [g.alexander for g in c.generators]
    return [a - b for a, b in zip(alex, alex[1:])]


def test_staircase_oracle_on_torus_ladder():
    # the torus-ladder benchmark's pool: both oracles read S, one off the
    # semigroup <p, q>, one off the library's staircase steps, and both
    # equal the sweep, so each other
    for p, q in torus_ladder():
        c = ku.torus_knot_complex(p, q)
        steps, f = staircase_steps(c), ku.upsilon(c)
        for t in breakpoints_and_midpoints(f):
            assert staircase_upsilon(steps, t) == torus_upsilon(p, q, t) \
                == f(t), (p, q, t)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(half=st.lists(st.integers(1, 4), min_size=1, max_size=4))
@example(half=[2])  # S n [0, 4) = {0, 1}: no semigroup, no torus knot
@example(half=[4, 1, 3, 2])  # the longest halves drawn, 2g = 20
def test_staircase_oracle_on_palindromes(half):
    # a palindromic staircase is swept by halves through its flip
    steps = half + half[::-1]
    c = ku.staircase(steps)
    assert _flip_of(c) is not None
    f = ku.upsilon(c)
    for t in breakpoints_and_midpoints(f):
        assert f(t) == staircase_upsilon(steps, t), t


def l_space_cables():
    """C(r, s) of T(p, q) for s >= r(2g - 1), an L-space knot (Hedden 2009,
    Hom 2011): the first ten s coprime to r for each of five companions
    and r = 2, 3, as (p, q, r, s)."""
    cables = []
    for p, q in [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5)]:
        g = (p - 1) * (q - 1) // 2
        for r in (2, 3):
            coprime = [s for s in range(r * (2 * g - 1), 40 * r)
                       if gcd(r, s) == 1]
            cables += [(p, q, r, s) for s in coprime[:10]]
    return cables


def test_staircase_oracle_on_l_space_cables():
    # each staircase is built by the tests from the cable's Alexander
    # polynomial: its steps are the gaps between the exponents
    cables = l_space_cables()
    assert len(cables) == 100
    for p, q, r, s in cables:
        delta = cable_alexander(torus_alexander(p, q), r, s)
        exponents = sorted(delta, reverse=True)
        assert [delta[e] for e in exponents] == [
            (-1) ** k for k in range(len(exponents))], (p, q, r, s)
        genus = r * (p - 1) * (q - 1) // 2 + (r - 1) * (s - 1) // 2
        assert top_degree(delta) == genus
        steps = [a - b for a, b in zip(exponents, exponents[1:])]
        c = ku.staircase(steps)
        f = ku.upsilon(c)
        for t in breakpoints_and_midpoints(f):
            assert f(t) == staircase_upsilon(steps, t), (p, q, r, s, t)
        assert ku.tau(c) == genus
        assert _flip_of(c) is not None


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


# -- the flip symmetry: half a sweep


_AC = [0, 3, 2, 1, 4]  # the figure-eight's flip symmetry: a <-> c


def _reversal(n):
    return list(range(n))[::-1]


def _product(pi1, pi2):
    """The flip symmetry of a tensor product from its factors': tensor
    orders the products lexicographically by the factors' positions."""
    return [y1 * len(pi2) + y2 for y1 in pi1 for y2 in pi2]


def _flip_cases():
    """Every genuine knot complex of the corpus's families with its flip
    symmetry pi, a list of generator positions: the corpus, the ordered
    tensors of its first eight, the duals of all of these, and torus knots
    up to T(17,31) with their mirrors.  pi reverses the generators but on
    a figure-eight factor, a corpus knot's last, where it swaps a and c;
    dual keeps it."""
    knots = []
    for name, c in corpus():
        n = len(c.generators)
        knots.append((c, _product(_reversal(n // 5), _AC)
                      if "figure8" in name else _reversal(n)))
    knots += [(ku.tensor(a, b), _product(pa, pb))
              for a, pa in knots[:8] for b, pb in knots[:8]]
    knots += [(ku.dual(c), pi) for c, pi in knots]
    pairs = [(p, q) for q in range(3, 24) for p in range(2, q)
             if gcd(p, q) == 1]
    for p, q in pairs + [(13, 29), (17, 31)]:
        for c in (ku.torus_knot_complex(p, q), ku.torus_knot_complex(p, -q)):
            knots.append((c, _reversal(len(c.generators))))
    return knots


def _flip_of(c):
    """The flip the sweep tries past t = 1, the reversal of c's slice, if
    it takes each point to its mirror, else None."""
    s = require_admissible(c)
    flip = knotupsilon.engine._flip(list(range(len(s.i))))
    return flip if _flip_facts(s, flip)[1] else None


def _mirrors(c, h):
    """What c's sweep keeps past its flip point, the grid point h, if the
    flip holds there: the (witnesses, grid points) mirroring the segments
    below, last first.  Segment k, [t_k, t_k+1], turns into [2 - t_k+1,
    2 - t_k] cut at t_h, with the flip of its witness, and is dropped if
    2 - t_k is not past t_h."""
    grid, witnesses, flip = c._sweep.grid, c._sweep.witnesses, _flip_of(c)
    kept = [k for k in range(h) if 2 - grid[k] > grid[h]][::-1]
    return ([(flip[p], [flip[x] for x in r], [flip[x] for x in phi])
             for p, r, phi in map(witnesses.__getitem__, kept)],
            [2 - grid[k] for k in kept])


def _on_slice(c, pi):
    """pi, a permutation of c's generators, as a map of slice positions."""
    keep = [x for x, g in enumerate(c.generators)
            if (g.maslov - c.ambient_d) % 2 == 0]
    pos = {x: k for k, x in enumerate(keep)}
    return [pos[pi[x]] for x in keep]


def _rotated(c):
    """c through the public constructor with its first generator moved
    last: the slice's positions change, so its reversal no longer mirrors
    it, but where every order of its points does, and it is swept in
    full."""
    gens = c.generators
    return BifilteredComplex(gens[1:] + gens[:1], c.differential,
                             c.ambient_d, c.label)


def _counted(monkeypatch, name):
    """The calls of one engine function, recorded from now on."""
    real, calls = getattr(knotupsilon.engine, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(knotupsilon.engine, name, counted)
    return calls


def _no_carry(monkeypatch):
    """Turn the carried candidate off: the sweep scans where it would
    have tried one, so scan counts and scan faults test the scan path."""
    monkeypatch.setattr(knotupsilon.engine, "_carried", lambda *args: None)


def test_builders_give_flip_symmetries():
    # each case's pi is a flip symmetry, checked off the differential
    # list, and it reverses the generators just where no figure-eight
    # factor enters
    cases = _flip_cases()
    assert len(cases) == 2 * (14 + 64) + 2 * (149 + 2)
    assert all(check_flip(c, pi) for c, pi in cases)
    assert all((pi == _reversal(len(pi))) == ("figure8" not in c.label)
               for c, pi in cases)
    # the sweep's rule reads the slice, not the builder: the public
    # constructor and JSON in builder order get the builder's flip; a
    # rotated copy, a boxed sum and a non-palindrome get none
    t34 = ku.torus_knot_complex(3, 4)
    for c in (BifilteredComplex(t34.generators, t34.differential),
              ku.complex_from_json(ku.complex_to_json(t34))):
        assert _flip_of(c) == _flip_of(t34) is not None
    for c in (_rotated(t34), ku.direct_sum(t34, ku.box_complex("b."), "boxed"),
              ku.staircase([1, 2])):
        assert _flip_of(c) is None


def test_slice_flip_maps_points_to_their_mirrors():
    # on every case without a figure-eight factor the rule gives a flip,
    # and it is pi on the slice: [x, i, j] to [pi x, j, i], with pi read
    # by name off the generator view; on a figure-eight product it is
    # none or not pi
    cases = _flip_cases()
    assert len(cases) == 458
    for c, pi in cases:
        names = [g.name for g in c.generators]
        by_name = dict(zip(names, [names[y] for y in pi]))
        pts, flip = ku.grading_slice(c, c.ambient_d), _flip_of(c)
        if "figure8" in c.label:
            assert flip is None or flip != _on_slice(c, pi)
            continue
        assert flip == _on_slice(c, pi) == _reversal(len(pts))
        for q, y in zip(pts, flip):
            assert pts[y] == LatticePoint(by_name[q.generator], q.j, q.i)


def test_figure_eight_flip_is_a_chain_map():
    # a <-> c, with e, b and d fixed, commutes with the differential on
    # lattice points, [x, i, j] -> [pi x, j, i], off the differential list
    c = ku.figure_eight_complex()
    names = [g.name for g in c.generators]
    pi = dict(zip(names, [names[y] for y in _AC]))
    assert pi == {"e": "e", "a": "c", "b": "b", "c": "a", "d": "d"}

    def flipped(points):
        return sorted(LatticePoint(pi[q.generator], q.j, q.i) for q in points)

    for name in names:
        for i in range(-2, 3):
            p = LatticePoint(name, i, c.generator(name).alexander + i)
            assert (flipped(chain_boundary(c, [p]))
                    == chain_boundary(c, flipped([p])))
    assert check_flip(c, _AC)
    assert not check_flip(c, _reversal(5))  # e <-> d is not


def _realizer_runs(c):
    """(t, (i, j)) wherever the realizer's coordinates change, from t = 0:
    a sweep may split a run at a tie parameter that the other does not."""
    runs = []
    for (t, _), p, _, _ in swept_segments(c):
        if not runs or runs[-1][1] != (p.i, p.j):
            runs.append((t, (p.i, p.j)))
    return runs


def test_half_sweep_equals_full_sweep(monkeypatch):
    # each case against an unswept copy of itself swept in full, its flip
    # refused: the same function, slopes and realizers (i, j)
    split = 0
    for c, _ in _flip_cases():
        with monkeypatch.context() as m:
            m.setattr(knotupsilon.engine, "_proves_flip",
                      lambda s, flip, z: False)
            full = c.relabeled(c.label)
            g, runs = ku.upsilon(full), _realizer_runs(full)
        f = ku.upsilon(c)
        assert f == g and f.slopes == g.slopes and f == f.reflected()
        assert _realizer_runs(c) == runs
        split += c._sweep.grid != full._sweep.grid
    assert split == 1  # -(T(3,5)#T(2,-3)): the full sweep splits at 6/5


def _swept_with(monkeypatch, c, flip=None):
    """upsilon(c) and its scans, with flip given to the sweep in place of
    the rule's if it is not None."""
    scans = _counted(monkeypatch, "_filtered_scan")
    if flip is not None:
        monkeypatch.setattr(knotupsilon.engine, "_flip", lambda ids: flip)
    return ku.upsilon(c), len(scans)


def _class_mover():
    """The trefoil summed with x, y, w and u, where dx = Uw, dy = w and
    du = x + Uy: the slice holds x0, x2, x and y at (0, 1), (1, 0), (1, 0)
    and (0, 1), its boundaries are x0 + x2 and x + y, and x0 represents
    the class.  [1, 0, 3, 2] keeps both; [2, 3, 0, 1] swaps the two
    boundaries but takes x0 to x, which is no cycle."""
    t = ku.torus_knot_complex(2, 3)
    gens = list(t.generators) + [Generator("x", -1, -2), Generator("y", 1, 0),
                                 Generator("w", 0, -1), Generator("u", 0, -1)]
    diff = list(t.differential) + [("x", "w", 1), ("y", "w", 0),
                                   ("u", "x", 0), ("u", "y", 1)]
    return BifilteredComplex(gens, diff, 0, "trefoil+xywu")


def _wrong_flips():
    """(build, right, wrong, facts): a complex builder, a flip _proves_flip
    holds on its slice and a wrong one, each None for the rule's reversal,
    and which of the four facts _proves_flip checks hold for the wrong one:
    it is an involution, it takes each point to its mirror, it maps each
    basis boundary into B, and it keeps the class."""
    t = ku.torus_knot_complex
    # T(3,4)#T(3,4)'s points at 1 and 5 share (i, j): the reversal with
    # their targets exchanged still mirrors every point, but twice it
    # takes 1 to 5
    square = _flip_of(ku.tensor(t(3, 4), t(3, 4)))
    square[1], square[5] = square[5], square[1]
    # two entries of T(5,7)'s reversal swapped, and the involution with
    # 0 <-> n-3 and 2 <-> n-1: each takes points off their mirrors
    swapped = _flip_of(t(5, 7))
    swapped[0], swapped[2] = swapped[2], swapped[0]
    n = len(swapped)
    crossed = [{0: n - 3, n - 3: 0, 2: n - 1, n - 1: 2}.get(x, n - 1 - x)
               for x in range(n)]
    # T(2,3)#T(2,3)'s points at 1 and 2 share (i, j): the reversal with
    # them exchanged on both sides mirrors every point and keeps the class
    # but takes a boundary out of B
    cases = [(lambda: ku.tensor(t(3, 4), t(3, 4)), None, square,
              (False, True, True, True)),
             (lambda: t(5, 7), None, swapped, (False, False, True, True)),
             (lambda: t(5, 7), None, crossed, (True, False, True, True)),
             (lambda: ku.tensor(t(2, 3), t(2, 3)), None, [4, 1, 3, 2, 0],
              (True, True, False, True)),
             (_class_mover, [1, 0, 3, 2], [2, 3, 0, 1],
              (True, True, True, False))]
    # the three sum-tower chains of torus knots and figure-eight factors:
    # the rule's reversal takes some boundary out of B (figure8's e <-> d
    # is no chain map); their flip symmetry pi swaps a and c instead
    for tokens in ([(3, 4), (2, -3), F8, F8], [(3, 5), (2, -5), F8],
                   [(4, 5), (2, -3), F8]):
        def chain(tokens=tokens):
            return reduce(ku.tensor, map(summand, tokens))

        torus = reduce(ku.tensor, map(summand, tokens[:2]))
        pi = _reversal(len(torus.generators))
        for _ in tokens[2:]:
            pi = _product(pi, _AC)
        assert check_flip(chain(), pi)
        assert not check_flip(chain(), _reversal(len(pi)))
        cases.append((chain, _on_slice(chain(), pi), None,
                      (True, True, False, False)))
    return cases


def _flip_facts(s, flip):
    """The four facts _proves_flip checks, read off the slice record s
    one by one: an involution, points to their mirrors, each basis boundary
    into B, and the class's cycle into its class."""
    e, ids = s.echelon, list(range(len(s.i)))

    def mask(xs):
        return sum(1 << flip[x] for x in xs)

    return ([flip[y] for y in flip] == ids,
            all((s.i[y], s.j[y]) == (s.j[x], s.i[x])
                for x, y in enumerate(flip)),
            not any(e.reduce(mask(b)) for b in s.boundaries),
            not e.reduce(mask(bits(s.cycle)) ^ s.cycle))


def test_proves_flip_refuses_each_wrong_flip():
    # _proves_flip refuses a flip that fails any one of its four facts: a
    # permutation mirroring every point that is no involution, two that
    # move points off their mirrors, one that keeps the class but takes a
    # boundary out of B, the reversal of the three chains with figure-eight
    # factors, where a boundary leaves B and the class moves, and a flip
    # that keeps B but moves the class.  It holds each case's right flip.
    for build, right, wrong, facts in _wrong_flips():
        c = build()
        s, rule = require_admissible(c), _flip_of(c)
        right, wrong = right or rule, wrong or rule
        z = bits(s.cycle)
        assert _flip_facts(s, right) == (True,) * 4, c.label
        assert _flip_facts(s, wrong) == facts, c.label
        assert knotupsilon.engine._proves_flip(s, right, z)
        assert not knotupsilon.engine._proves_flip(s, wrong, z), c.label


def test_wrong_flip_costs_scans_not_answers(monkeypatch):
    # each wrong flip of _wrong_flips, given to the sweep in place of the
    # rule's, is refused once by _proves_flip, and the sweep goes on past
    # t = 1 as below it: the right flip's upsilon, with more scans, and
    # witnesses that re-prove.  The carried candidate is off, so that scans
    # count the segments past 1; with it on, T(5,7) takes one scan either
    # way.
    _no_carry(monkeypatch)
    for build, right, wrong, _ in _wrong_flips():
        with monkeypatch.context() as m:
            f, half = _swept_with(m, build(), right)
        c = build()
        with monkeypatch.context() as m:
            asked = _counted(m, "_proves_flip")
            g, scans = _swept_with(m, c, wrong)
        assert len(asked) == 1, c.label
        assert g == f and g.slopes == f.slopes and scans > half, c.label
        for ends, p, cycle, cocycle in swept_segments(c):
            assert check_segment_certificate(c, ends, p, cycle, cocycle)


def test_flip_is_screened_on_the_slice_only(monkeypatch):
    # the rule reads the slice alone: T(5,7) through the public
    # constructor with two generators of the other parity swapped is no
    # longer mirrored by the reversal of its generators, whose gradings
    # fail off the slice, but its slice is T(5,7)'s, so it gets T(5,7)'s
    # flip, and the same upsilon in as many scans, every witness proved.
    # The carried candidate is off: it would sweep T(5,7) in one scan with
    # or without the flip, so scans could not tell the flip was kept.
    _no_carry(monkeypatch)
    right = ku.torus_knot_complex(5, 7)
    gens = list(right.generators)
    assert gens[1].maslov % 2 == gens[3].maslov % 2 != right.ambient_d % 2
    gens[1], gens[3] = gens[3], gens[1]
    c = BifilteredComplex(gens, right.differential, right.ambient_d)
    assert not check_flip(c, _reversal(len(gens)))
    assert ku.grading_slice(c, 0) == ku.grading_slice(right, 0)
    assert _flip_of(c) == _flip_of(right) is not None
    scans = _counted(monkeypatch, "_filtered_scan")
    f = ku.upsilon(right)
    assert len(scans) == 3
    scans.clear()
    g = ku.upsilon(c)
    assert len(scans) == 3 and g == f and g.slopes == f.slopes
    assert len(c._sweep.grid) - 1 == 6  # three segments mirrored
    for ends, p, cycle, cocycle in swept_segments(c):
        assert check_segment_certificate(c, ends, p, cycle, cocycle)


def test_flip_halves_the_scans(monkeypatch):
    # a machine-independent guard on the half sweep's cost, in scans, and
    # on which complexes the rule gives a flip, with the carried candidate
    # off, since it leaves a positive torus knot one scan, flip or none
    _no_carry(monkeypatch)
    scans = _counted(monkeypatch, "_filtered_scan")

    def cost(c):
        scans.clear()
        ku.upsilon(c)
        return len(scans)

    t = ku.torus_knot_complex
    c = t(13, 29)
    assert cost(c) <= 8 and len(c._sweep.grid) - 1 == 15
    sixfold = reduce(ku.tensor, [t(2, 3)] * 6)
    assert cost(sixfold) == 1 and _flip_of(sixfold)
    # upsilon is 0: one segment, so t never reaches 1 with work left
    fig8s = reduce(ku.tensor, [ku.figure_eight_complex()] * 4)
    assert cost(fig8s) == 1 and _flip_of(fig8s)
    # no flip through direct_sum: the full sweep's three scans
    boxed = ku.direct_sum(ku.tensor(t(3, 4), t(3, 4)),
                          ku.box_complex("b.", 1, 0))
    assert cost(boxed) == 3 and len(boxed._sweep.grid) - 1 == 3
    assert _flip_of(boxed) is None


def _sweep_events(monkeypatch):
    """The sweep's calls of _flip, _proves_flip, _proves_segment and
    _filtered_scan from now on, in order, each as (name, what it
    returned)."""
    engine, events = knotupsilon.engine, []
    for name in ("_flip", "_proves_flip", "_proves_segment", "_filtered_scan"):
        def logged(*args, name=name, real=getattr(engine, name)):
            events.append((name, real(*args)))
            return events[-1][1]

        monkeypatch.setattr(engine, name, logged)
    return events


def test_flip_rule_reaches_all_but_figure_eight_products(monkeypatch):
    # the rule's reach over the flip cases: it gives every case without a
    # figure-eight factor a flip, _proves_flip holds it wherever the sweep
    # reaches t = 1 with work left, and the sweep then proves and scans
    # nothing more; a JSON round trip, in builder order, takes its
    # builder's scans.  The rule's flip is asked for once per sweep, and
    # refused on 44 figure-eight products and held on none.  On the three
    # sum-tower chains of torus knots and figure-eight factors it is
    # refused right after the rule gives it, and the sweep scans there.
    events = _sweep_events(monkeypatch)

    def sweep(c):
        events.clear()
        ku.upsilon(c)
        return list(events)

    def scans(log):
        return sum(name == "_filtered_scan" for name, _ in log)

    refused = 0
    for c, _ in _flip_cases():
        c = c.relabeled(c.label)  # unswept: the corpus is shared
        log = sweep(c)
        names = [name for name, _ in log]
        verdicts = [ok for name, ok in log if name == "_proves_flip"]
        assert names.count("_flip") <= 1 and len(verdicts) <= 1, c.label
        if "figure8" not in c.label:
            assert _flip_of(c) is not None, c.label
            assert verdicts in ([], [True]), c.label
        else:
            assert verdicts != [True], c.label
            refused += verdicts == [False]
        if verdicts == [True]:
            assert names[-1] == "_proves_flip", c.label
        twin = ku.complex_from_json(ku.complex_to_json(c))
        assert scans(sweep(twin)) == scans(log), c.label
    assert refused == 44
    chains = [[(3, 4), (2, -3), F8, F8], [(3, 5), (2, -5), F8],
              [(4, 5), (2, -3), F8]]
    for tokens in chains:
        c = reduce(ku.tensor, map(summand, tokens))
        log = sweep(c)
        k = [name for name, _ in log].index("_flip")
        assert _flip_of(c) is not None, tokens
        assert log[k + 1] == ("_proves_flip", False), tokens
        assert log[k + 2][0] == "_filtered_scan"
        assert all(ok for name, ok in log if name == "_proves_segment")


def test_sweep_proves_each_cocycle_once(monkeypatch):
    # a machine-independent guard on the proofs' cost: on T(13,29) phi is
    # the whole slice on all 15 segments, so the cocycle half of the proof,
    # the one reader of the echelon's rows, runs once.  The echelon's calls
    # over the torus-ladder pool, sweeps and slices, are pinned at their
    # figures since the flip is proved once per sweep (3,483 reduces when
    # each mirrored segment was proved, 6,051 when every segment below t = 1
    # was scanned): each carried candidate costs one reduce to screen and
    # one in its proof, and the flip's proof one for the class, its
    # boundaries all matching their mates.  The rows those reduces add are
    # pinned too: a carried candidate's proof reduces the 2-bit vector
    # p + q, not r + z, so the pool adds 1,548 rows, not 1,944.
    class Rows(dict):
        def values(self):
            reads.append(len(self))
            return dict.values(self)

    c, reads = ku.torus_knot_complex(13, 29), []
    s = require_admissible(c)
    monkeypatch.setattr(s.echelon, "pivots", Rows(s.echelon.pivots))
    ku.upsilon(c)
    cocycles = {frozenset(phi) for _, _, phi in c._sweep.witnesses}
    assert len(c._sweep.witnesses) == 15 and len(reads) == len(cocycles) == 1
    calls = {"add": 0, "reduce": 0, "rows": 0}
    real_add = BitEchelon.add

    def add(self, v):
        calls["add"] += 1
        return real_add(self, v)

    def reduce(self, v):  # BitEchelon.reduce, counting the rows it adds
        calls["reduce"] += 1
        while v:
            row = self.pivots.get(v.bit_length() - 1)
            if row is None:
                break
            v ^= row
            calls["rows"] += 1
        return v

    monkeypatch.setattr(BitEchelon, "add", add)
    monkeypatch.setattr(BitEchelon, "reduce", reduce)
    for p, q in torus_ladder():
        ku.upsilon(ku.torus_knot_complex(p, q))
    assert calls == {"add": 2627, "reduce": 3313, "rows": 1548}


class _AllBoundaries:
    """A slice record stand-in whose echelon spans every vector."""
    class echelon:
        reduce = staticmethod(lambda v: 0)


def _sweep_log(monkeypatch, corrupt=None):
    """The sweep's scans, the carried candidates it is offered (after
    corrupt(s, *candidate), if given), the ones _carried turned down because
    top + q is no boundary, and each proof's witness, verdict and last (the
    witness and hull a carried candidate is proved from, else None),
    recorded from now on."""
    engine = knotupsilon.engine
    real_carried, real_proves = engine._carried, engine._proves_segment
    log = {"scans": _counted(monkeypatch, "_filtered_scan"),
           "offered": [], "turned_down": [], "proofs": []}

    def carried(s, *args):
        held = real_carried(s, *args)
        if held and corrupt:
            held = corrupt(s, *held)
        if held:
            log["offered"].append(held)
        elif real_carried(_AllBoundaries, *args):
            log["turned_down"].append(args)
        return held

    def proves(s, top, r, phi, w0, w1, proved, masks, last=None):
        ok = real_proves(s, top, r, phi, w0, w1, proved, masks, last)
        log["proofs"].append(((top, r, phi), ok, last))
        return ok

    monkeypatch.setattr(engine, "_carried", carried)
    monkeypatch.setattr(engine, "_proves_segment", proves)
    return log


def _refused(log):
    """The carried candidates whose proof failed."""
    return [w for w, ok, _ in log["proofs"]
            if not ok and any(w[1] is h[1] for h in log["offered"])]


def test_sweep_carries_each_witness_across_its_tie(monkeypatch):
    # a machine-independent guard on the carried candidate: each knot of
    # the torus-ladder pool is one scan, at t = 0, and no candidate is
    # turned down or refused (266 scans when every segment below t = 1 was
    # scanned).  Each kept witness is the witness of exactly one proof
    # that returned True, so no candidate is kept unproved.  Over the
    # sum-tower chains 4 candidates are kept and none refused: 44 scans,
    # not 48.  11 more are turned down before their proof, since top + q
    # is no boundary there, and a scan takes the place of each.  Three
    # chains of torus knots and figure-eight factors refuse the reversal
    # at t = 1 and sweep on past it: 6 scans and 3 turned down more than
    # with their flip symmetry.  The kept witnesses are the proved ones,
    # below the flip point where the flip holds, then their mirrors.  A
    # scan's witness is proved from scratch and a carried one by induction,
    # from the witness kept before it and the hull of its phi, the same
    # list: 189 of the pool's 266 proofs and 4 of sum-tower's 48.
    log = _sweep_log(monkeypatch)

    def sweep(c):
        log["proofs"].clear()
        ku.upsilon(c)
        kept = [(w, last) for w, ok, last in log["proofs"] if ok]
        h = len(kept)
        assert c._sweep.witnesses[:h] == [w for w, _ in kept], c.label
        assert (c._sweep.witnesses[h:], c._sweep.grid[h + 1:]) == _mirrors(
            c, h), c.label
        s = require_admissible(c)
        ds = [j - i for i, j in zip(s.i, s.j)]
        for (before, _), (w, last) in zip(kept, kept[1:]):
            if last is not None:
                assert last[:3] == before and last[2] is before[2] is w[2]
                assert last[3] == knotupsilon.engine._hull(s.i, ds, w[2])
        return sum(last is not None for _, last in kept), h

    counts = [0, 0]
    for p, q in torus_ladder():
        log["scans"].clear()
        counts = [a + b for a, b in zip(counts, sweep(
            ku.torus_knot_complex(p, q)))]
        assert len(log["scans"]) == 1 and not _refused(log), (p, q)
    assert not log["turned_down"] and counts == [189, 266]
    log["scans"].clear()
    log["offered"].clear()
    refused, counts = 0, [0, 0]
    for c in sum_tower_chains():
        counts = [a + b for a, b in zip(counts, sweep(c))]
        refused += len(_refused(log))
    assert len(log["scans"]) == 44 and refused == 0 and counts == [4, 48]
    assert len(log["offered"]) == 4 and len(log["turned_down"]) == 11


def test_sweep_weighs_twice_and_builds_one_hull_per_knot(monkeypatch):
    # a machine-independent guard on the carried segment's cost, measured
    # once: each torus-ladder knot is one scan at t = 0, carried after
    # that, so its sweep builds two weight lists, at t = 0 and at the
    # scanned segment's end, and reads a few weights per carried segment;
    # each of the 66 knots with a carried segment builds one hull, for the
    # one phi of its sweep, and the 11 T(2, q) build none
    engine, whole, hulls = knotupsilon.engine, [], _counted(
        monkeypatch, "_hull")
    real, first = engine._weights, {}

    def weights(s, a, b, xs):  # a whole list passes the ids of t = 0
        if first.setdefault(id(s), xs) is xs:
            whole.append((a, b))
        return real(s, a, b, xs)

    monkeypatch.setattr(engine, "_weights", weights)
    counts, kept = [0, 0, 0], []
    for p, q in torus_ladder():
        c = ku.torus_knot_complex(p, q)
        kept.append(c)  # keeps id(s) unique
        whole.clear()
        hulls.clear()
        ku.upsilon(c)
        carried = _flip_point(c) - 1
        assert len(whole) == 2 and whole[0] == (0, 1), (p, q)
        assert len(hulls) == (carried > 0), (p, q)
        counts = [a + b for a, b in zip(counts, (len(whole), len(hulls),
                                                 carried))]
    assert counts == [154, 66, 189]


def _drop_realizer_from_cycle(s, q, r, phi):
    return q, [x for x in r if x != q], phi


def _move_realizer(s, q, r, phi):
    others = [x for x in r if x != q] or [x for x in phi if x != q]
    return min(others), r, phi


def _drop_realizer_from_cocycle(s, q, r, phi):
    return q, r, [x for x in phi if x != q]


def _copy_cocycle(s, q, r, phi):
    # an equal phi, but not the list the last segment proved
    return q, r, list(phi)


def _realizer_off_the_hull(s, q, r, phi):
    # the realizer moved to a point of phi that is no vertex of its lower
    # hull, r swapped to match: the nearest such point past q in j - i,
    # which ties with the last realizer at t0 where it lies on the hull
    # edge between the two
    ds = [j - i for i, j in zip(s.i, s.j)]
    vertices = {x for _, _, x in lower_hull([(ds[x], s.i[x], x)
                                             for x in phi])}
    off = [x for x in phi if x not in vertices]
    x = min([x for x in off if ds[x] > ds[q]] or off,
            key=lambda x: (ds[x], x))
    return x, [y for y in r if y != q] + [x], phi


def _realizer_to_another_vertex(s, q, r, phi):
    # the realizer moved to the hull vertex of phi next to q, of smaller
    # j - i where there is one, r swapped to match: it passes the hull
    # test and weighs more than the last realizer at t0
    ds = [j - i for i, j in zip(s.i, s.j)]
    vertices = [x for _, _, x in lower_hull([(ds[x], s.i[x], x)
                                             for x in phi]) if x not in r]
    x = min(vertices, key=lambda x: (ds[x] > ds[q], abs(ds[x] - ds[q])))
    return x, [y for y in r if y != q] + [x], phi


@pytest.mark.parametrize("corrupt", [
    _drop_realizer_from_cycle, _move_realizer, _drop_realizer_from_cocycle,
    _copy_cocycle, _realizer_off_the_hull, _realizer_to_another_vertex])
def test_a_corrupted_candidate_is_refused_and_scanned(monkeypatch, corrupt):
    # every carried candidate corrupted: the proof refuses each one, a scan
    # takes its place, and upsilon and its witnesses are as without the
    # fault.  T(13,29) carries below t = 1 only; T(5,7) rotated by one
    # through the public constructor has no flip, so it carries on both
    # halves.
    builds = (lambda: ku.torus_knot_complex(13, 29),
              lambda: _rotated(ku.torus_knot_complex(5, 7)))
    assert _flip_of(builds[1]()) is None
    for build in builds:
        want = ku.upsilon(build())
        with monkeypatch.context() as m:
            log = _sweep_log(m, corrupt)
            c = build()
            f = ku.upsilon(c)
        assert f == want and f.slopes == want.slopes
        offered = len(log["offered"])
        assert offered >= 5 and len(_refused(log)) == offered
        assert len(log["scans"]) == 1 + offered
        for ends, p, cycle, cocycle in swept_segments(c):
            assert check_segment_certificate(c, ends, p, cycle, cocycle)


def _hull_chain(hull):
    """_hull's vertices in order of j - i: the first maps to itself and
    each other vertex to the one before it."""
    after = {low: x for x, low in hull.items() if low != x}
    chain = [x for x, low in hull.items() if low == x]
    assert len(chain) == 1
    while chain[-1] in after:
        chain.append(after[chain[-1]])
    assert len(chain) == len(hull)
    return chain


def _hull_cases(rng):
    """(si, ds, phi) point sets for _hull, phi in a random order: random
    sets, collinear runs, repeated coordinates, a single point, every point
    at one j - i, and the cocycles of a torus knot and a sum-tower chain."""
    def case(coords):
        si, ds = [i for i, _ in coords], [d for _, d in coords]
        return si, ds, rng.sample(range(len(coords)), len(coords))

    for _ in range(150):
        n = rng.randrange(1, 26)
        yield case([(rng.randrange(6), rng.randrange(-5, 6))
                    for _ in range(n)])
    for _ in range(40):
        line = [(12 - 2 * d, d) for d in range(-3, 7)]  # one line
        bent = [(d * d, d) for d in range(-4, 5)]
        runs = [(max(6 - d, 2, d - 2), d) for d in range(-2, 12)]
        extra = [(rng.randrange(20), rng.randrange(-4, 12))
                 for _ in range(rng.randrange(4))]
        for coords in (line, bent, runs):
            twins = rng.sample(coords, rng.randrange(1, 4))  # repeats
            yield case(coords + twins + extra)
    yield case([(3, -1)])
    yield case([(rng.randrange(5), 2) for _ in range(7)])
    for c in (ku.torus_knot_complex(13, 29), list(sum_tower_chains())[4]):
        ku.upsilon(c)
        s = require_admissible(c)
        ds = [j - i for i, j in zip(s.i, s.j)]
        for phi in {id(phi): phi for _, _, phi in c._sweep.witnesses}.values():
            yield s.i, ds, list(phi)


def test_hull_matches_a_brute_force_oracle():
    # the end check at t1 of a carried segment, and its phi's tie, trust
    # _hull: its vertices are lower_hull's, each strictly convex and at its
    # coordinate's least position, every point lies on or above the chain,
    # and at each t of a grid in [0, 2) the least weight over the points is
    # the least over the vertices
    grid = sorted({F(a, b) for b in range(1, 8) for a in range(2 * b)})
    for si, ds, phi in _hull_cases(random.Random(36)):
        chain = _hull_chain(knotupsilon.engine._hull(si, ds, phi))
        points = [(ds[x], si[x], x) for x in phi]
        assert [(ds[x], si[x], x) for x in chain] == lower_hull(points)
        for x, y, z in zip(chain, chain[1:], chain[2:]):
            assert ((ds[y] - ds[x]) * (si[z] - si[x])
                    > (si[y] - si[x]) * (ds[z] - ds[x]))
        for x in chain:
            assert x == min(y for y in phi
                            if (ds[y], si[y]) == (ds[x], si[x]))
        assert (ds[chain[0]], ds[chain[-1]]) == (min(points)[0], max(points)[0])
        for d, i, _ in points:  # u, v: the chain's edge over d
            k = max(k for k, x in enumerate(chain) if ds[x] <= d)
            u, v = chain[k], chain[min(k + 1, len(chain) - 1)]
            if ds[u] == d:
                assert i >= si[u]
            else:
                assert ((i - si[u]) * (ds[v] - ds[u])
                        >= (si[v] - si[u]) * (d - ds[u]))
        for t in grid:
            a, b = t.numerator, t.denominator
            def weight(x):
                return 2 * b * si[x] + a * ds[x]
            assert min(map(weight, phi)) == min(map(weight, chain))


def test_a_corrupted_scan_still_raises_with_the_carry_on(monkeypatch):
    # the carried candidate does not stand in for a scan that fails its
    # proof: the sweep's first segment is always scanned
    real = knotupsilon.engine._filtered_scan

    def dropped(*args):
        top, r, phi = real(*args)
        return top, [x for x in r if x != top], phi

    monkeypatch.setattr(knotupsilon.engine, "_filtered_scan", dropped)
    for c in (ku.torus_knot_complex(13, 29),
              ku.complex_from_json(
                  ku.complex_to_json(ku.torus_knot_complex(5, 7)))):
        with pytest.raises(AssertionError, match="^nu (not linear|jumps)"):
            ku.upsilon(c)


def test_json_round_trip_is_swept_like_the_builtin(monkeypatch):
    # JSON keeps the generator order, so a complex read from JSON gets the
    # builtin's flip, and T(61,97) from it takes the builtin's one scan
    # (130 when every segment was scanned), to the builtin's function
    builtin = ku.torus_knot_complex(61, 97)
    c = ku.complex_from_json(ku.complex_to_json(builtin))
    assert _flip_of(c) == _flip_of(builtin) is not None
    scans = _counted(monkeypatch, "_filtered_scan")
    f = ku.upsilon(c)
    assert len(scans) == 1
    scans.clear()
    assert f == ku.upsilon(builtin) and f.slopes == ku.upsilon(builtin).slopes
    assert len(scans) == 1


def test_sweep_keeps_each_witness_once():
    # a machine-independent guard on the sweep's memory: on T(43,67) the
    # kept supports, one list entry of 8 bytes per point, are most of the
    # peak; keeping each witness twice, as supports and as lattice points,
    # took the peak to 2.19 times their size, against 1.52 kept once.  A
    # carried segment shares its cocycle list with the one before, so kept
    # once now reads 1.00 and a tuple copy of each witness 2.01.
    c = ku.torus_knot_complex(43, 67)
    require_admissible(c)
    tracemalloc.start()
    try:
        ku.upsilon(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    witnesses = c._sweep.witnesses
    kept = sum(len(w[-2]) + len(w[-1]) for w in witnesses)  # r and phi
    assert len(witnesses) == 88
    assert peak <= 1.3 * 8 * kept


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
    # neither nu nor upsilon: 2b nu(t0) is the left realizer's weight
    def refuse(c, t):
        raise AssertionError("jump_report evaluated at %s" % t)

    for c in (ku.torus_knot_complex(3, 7),
              ku.tensor(ku.torus_knot_complex(3, 5),
                        ku.torus_knot_complex(2, -3))):
        f = ku.upsilon(c)
        with monkeypatch.context() as m:
            m.setattr(knotupsilon.engine, "nu_at", refuse)
            m.setattr(PLFunction, "__call__", refuse)
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
    # a scan that drops a point from either, or names another point as the
    # realizer, must not get past that check at one end or the other.  On
    # T(3,-4) every r holds three coordinates, so the realizer can move
    # within r; on T(13,29) r is the realizer alone, and it moves into phi.
    # The scan returns r and phi as supports, lists of slice positions.
    # Each corruption hits every scan, then only the second, then only the
    # last: by then the sweep has proved other cocycles, and the proof's
    # cocycle half must not pass a new one for resembling one of them.  On
    # T(3,4)#T(2,-5) a point of phi can be traded for one off phi with the
    # same (i, j): phi then weighs the same at both ends and keeps its size,
    # the size of the cocycle proved before it, so only the cocycle half
    # can refuse it.  The carried candidate is off, so every segment below
    # t = 1 is scanned: with it, T(13,29) takes one scan.
    _no_carry(monkeypatch)

    def drop_from_cycle(s, top, r, phi):
        return top, [x for x in r if x != top], phi

    def drop_from_cocycle(s, top, r, phi):
        return top, r, [x for x in phi if x != top]

    def move_realizer(s, top, r, phi):
        others = [x for x in r if x != top] or [x for x in phi if x != top]
        return min(others), r, phi

    def twin_in_cocycle(s, top, r, phi):  # phi as it is if it has no twin
        twins = [(x, y) for x in phi if x != top for y in range(len(s.i))
                 if y not in phi and (s.i[x], s.j[x]) == (s.i[y], s.j[y])]
        x, y = twins[0] if twins else (None, None)
        return top, r, [y if v == x else v for v in phi]

    t = ku.torus_knot_complex
    three = (drop_from_cycle, drop_from_cocycle, move_realizer)
    cases = [(lambda: t(3, -4), three), (lambda: t(13, 29), three),
             (lambda: ku.tensor(t(3, 4), t(2, -5)),
              three + (twin_in_cocycle,))]
    real = knotupsilon.engine._filtered_scan
    for build, corruptions in cases:
        with monkeypatch.context() as m:
            scans = _counted(m, "_filtered_scan")
            ku.upsilon(build())
        last = len(scans)
        assert last >= 2
        for corrupt, hit in [(f, h) for f in corruptions
                             for h in (None, 2, last)]:
            c, scans = build(), []
            s = require_admissible(c)

            def corrupted(*args, corrupt=corrupt, hit=hit, s=s, scans=scans):
                scans.append(args)
                witness = real(*args)
                return (corrupt(s, *witness) if hit in (None, len(scans))
                        else witness)

            with monkeypatch.context() as m:
                m.setattr(knotupsilon.engine, "_filtered_scan", corrupted)
                with pytest.raises(AssertionError, match="^nu not linear"):
                    ku.upsilon(c)


def test_upsilon_one_scan_per_segment(monkeypatch):
    # a machine-independent guard on the sweep's cost: T(13,29) has 15
    # certified segments, none costs more than one scan, and nu_at is not
    # used
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


def test_scan_on_int_keys_matches_reference_scan(monkeypatch):
    # the sweep scans on one int per point, weight * span + (j - i); at
    # each scanned start t it must give exactly what the scan gives on the
    # (weight, j - i) pairs.  The start of each scan is the grid point
    # whose pair order its keys repeat: lines cross at most once, so no
    # two grid points share that order.  The scan sorts the sweep's ids,
    # so the supports it returns are made of those very ints.
    rng = random.Random(27)
    complexes = [c.relabeled(c.label) for _, c in corpus()]  # unswept
    complexes += [random_admissible_complex(rng, "k%d" % k)
                  for k in range(200)]
    complexes += [ku.torus_knot_complex(p, q) for p, q in torus_ladder()]
    complexes += list(sum_tower_chains())
    assert len(complexes) == 14 + 200 + 77 + 20
    real, calls = knotupsilon.engine._filtered_scan, []

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(knotupsilon.engine, "_filtered_scan", recorded)
    scans = negative = tied = 0
    for c in complexes:
        calls.clear()
        ku.upsilon(c)
        s = require_admissible(c)
        grid, n = c._sweep.grid, len(s.i)
        negative += any(j < i for i, j in zip(s.i, s.j))
        k = 0
        for (z, boundaries, keys, ids), witness in calls:
            assert ids == list(range(n))
            assert all(x is ids[x] for x in witness[1] + witness[2])
            order = sorted(range(n), key=keys.__getitem__)
            while True:
                a, b = grid[k].numerator, grid[k].denominator
                pairs = [((2 * b - a) * i + a * j, j - i)
                         for i, j in zip(s.i, s.j)]
                k += 1
                if sorted(range(n), key=pairs.__getitem__) == order:
                    break
            assert witness == reference_scan(z, boundaries, pairs), (
                c.label, grid[k - 1])
            tied += len({w for w, _ in pairs}) < len(set(pairs))
            scans += 1
    assert scans and negative and tied


def test_segment_certificates_check_out():

    rng = random.Random(11)
    complexes = ([c for _, c in corpus()]
                 + [random_admissible_complex(rng, "s%d" % k)
                    for k in range(20)]
                 + [ku.torus_knot_complex(17, 31)])
    for c in complexes:
        f = ku.upsilon(c)
        for ends, p, cycle, cocycle in swept_segments(c):
            assert check_segment_certificate(c, ends, p, cycle, cocycle)
            for t in ends:
                assert f(t) == -2 * filtration_value(t, p)


def _rebuilt_through_constructor(c):
    # upsilon at each grid point from the realizer of the segment starting
    # there, and at 2 from the last one, through the validating constructor
    segments = list(swept_segments(c))
    values = [-2 * filtration_value(t, p) for (t, _), p, _, _ in segments]
    values.append(-2 * filtration_value(2, segments[-1][1]))
    return PLFunction([t for (t, _), _, _, _ in segments] + [2], values)


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


@pytest.mark.parametrize("knots,segments,pieces", [
    ([(3, 5), (2, -3)], 4, 3), ([(3, 7), (3, -7)], 6, 1),
], ids=["T(3,5)#T(2,-3)", "T(3,7)#T(3,-7)"])
def test_upsilon_merges_collinear_segments(knots, segments, pieces):
    # the sweep's segments past t = 1 mirror those below exactly, so
    # T(3,7)#T(3,-7) keeps 6 segments, 3 below 1 and their 3 mirrors, for
    # a function of one piece
    c = ku.tensor(*(ku.torus_knot_complex(*pq) for pq in knots))
    f = ku.upsilon(c)
    assert len(c._sweep.grid) - 1 == segments
    assert len(f.slopes) == pieces
    g = _rebuilt_through_constructor(c)
    assert g == f and g.slopes == f.slopes


def _flip_point(c):
    """The index in c's grid of its first point at or past t = 1."""
    return next(k for k, t in enumerate(c._sweep.grid) if t >= 1)


def test_mirrored_segments_are_exact_mirrors():
    # past the flip point, the first grid point at or past t = 1, the sweep
    # keeps the exact mirror of each segment below: [t0, t1] turns into
    # [2 - t1, 2 - t0], cut at the flip point, with the flip of its
    # witness.  On T(3,7)#T(3,-7) the flip point is 1 and the grid above it
    # is 2 minus the grid below; on T(3,4) the carried segment [2/3, 4/3]
    # straddles 1, and its mirror, which would end at the flip point 4/3,
    # is dropped.  Every kept witness re-proves.
    grids = {}
    for knots in [((3, 7), (3, -7)), ((3, 4),)]:
        c = reduce(ku.tensor, [ku.torus_knot_complex(*pq) for pq in knots])
        ku.upsilon(c)
        h = _flip_point(c)
        assert (c._sweep.witnesses[h:], c._sweep.grid[h + 1:]) == _mirrors(
            c, h)
        grids[knots] = c._sweep.grid
        for ends, p, cycle, cocycle in swept_segments(c):
            assert check_segment_certificate(c, ends, p, cycle, cocycle)
    assert grids == {((3, 7), (3, -7)): [0, F(2, 3), F(6, 7), 1, F(8, 7),
                                         F(4, 3), 2],
                     ((3, 4),): [0, F(2, 3), F(4, 3), 2]}


def test_sweep_counts_over_the_five_pools(monkeypatch):
    # a machine-independent guard on the one candidate slot and on the
    # flip proved once, measured once: (scans, kept segments, mirrored
    # segments) over the torus-ladder pool, its mirrors, the sum-tower
    # chains, the flip cases and their JSON round trips.  Where
    # _proves_flip holds, every witness past the flip point is the flip of
    # its mirror below and the grid there is 2 minus the grid below, and
    # every kept witness of every pool but the JSON twins re-proves.  The
    # sum-tower chains took 66 segments when a mirrored witness ran to its
    # first tie: T(3,7)#T(3,-7) and T(3,7)#T(3,-5)#T(2,3) each keep one
    # more now, the exact mirrors of their segments below 1.
    cases = [c.relabeled(c.label) for c, _ in _flip_cases()]  # unswept
    pools = {
        "torus-ladder": [ku.torus_knot_complex(p, q)
                         for p, q in torus_ladder()],
        "mirrors": [ku.torus_knot_complex(p, -q) for p, q in torus_ladder()],
        "sum-tower": list(sum_tower_chains()), "flip cases": cases,
        "JSON": [ku.complex_from_json(ku.complex_to_json(c)) for c in cases]}
    scans, counts = _counted(monkeypatch, "_filtered_scan"), {}
    real, held = knotupsilon.engine._proves_flip, []

    def proves_flip(*args):
        held.append(real(*args))
        return held[-1]

    monkeypatch.setattr(knotupsilon.engine, "_proves_flip", proves_flip)
    for name, pool in pools.items():
        scans.clear()
        mirrored = 0
        for c in pool:
            held.clear()
            ku.upsilon(c)
            if held == [True]:
                h = _flip_point(c)
                assert (c._sweep.witnesses[h:], c._sweep.grid[h + 1:]) == (
                    _mirrors(c, h)), c.label
                mirrored += len(c._sweep.witnesses) - h
            if name != "JSON":
                for ends, p, cycle, cocycle in swept_segments(c):
                    assert check_segment_certificate(c, ends, p, cycle,
                                                     cocycle), c.label
        counts[name] = (len(scans), sum(len(c._sweep.witnesses) for c in pool),
                        mirrored)
    assert counts == {"torus-ladder": (77, 513, 247),
                      "mirrors": (266, 513, 247), "sum-tower": (44, 68, 20),
                      "flip cases": (1249, 3900, 1862),
                      "JSON": (1249, 3900, 1862)}


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
    # T(3,4) weighs more than the first one where the two segments meet;
    # the carried candidate is off, so that the second segment is scanned
    _no_carry(monkeypatch)
    real = knotupsilon.engine._filtered_scan
    scans = 0

    def second_moved(*args):
        nonlocal scans
        scans += 1
        top, r, phi = real(*args)
        return (max(phi) if scans == 2 else top), r, phi

    monkeypatch.setattr(knotupsilon.engine, "_proves_segment",
                        lambda *args: True)
    monkeypatch.setattr(knotupsilon.engine, "_filtered_scan", second_moved)
    with pytest.raises(AssertionError, match="^nu jumps at 2/3$"):
        ku.upsilon(ku.torus_knot_complex(3, 4))


def test_segment_certificate_oracle_rejects_broken_witness():
    c = ku.torus_knot_complex(3, 4)
    ends, p, cycle, cocycle = next(swept_segments(c))
    grid = c._sweep.grid
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
