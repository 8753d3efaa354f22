"""Exact computation of the upsilon invariant and its companions.

For a parameter t in [0, 2] the lattice point [x, i, j] gets the weight
(1 - t/2) i + (t/2) j.  Among cycles of Maslov grading ambient_d whose
class is nonzero, nu(t) is the least possible value of the maximal weight
of a summand, and upsilon(t) = -2 nu(t).

Everything happens on the finite grading-d slice: each generator of the
right Maslov parity contributes exactly one lattice point per homological
grading, so cycles, boundaries, and the filtered minimum are all finite
exact linear algebra over GF(2).  At t = a/b every weight times 2b is the
integer (2b - a) i + a j, which orders the points exactly as the weights
do, so nu_at, the one route to nu, scans on those integers and divides
by 2b once at the end.  It reduces a fixed cycle representing the class
against the boundaries in weight order; it tops out at weight nu.  Two
test oracles check it.  upsilon alone walks along t; it records the
point realizing nu on each segment, and jump_report reads it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .complexes import (BifilteredComplex, LatticePoint, _essential_cycle,
                        grading_slice, require_admissible)
from .errors import NonAdmissibleError
from .gf2 import BitEchelon, bits, kernel_basis
from .plfunction import PLFunction


def _check_t(t) -> Fraction:
    t = Fraction(t)
    if not 0 <= t <= 2:
        raise ValueError("parameter %s outside [0, 2]" % t)
    return t


def filtration_value(t, point: LatticePoint) -> Fraction:
    """The weight (1 - t/2) i + (t/2) j of a lattice point, exactly."""
    t = _check_t(t)
    return (1 - t / 2) * point.i + (t / 2) * point.j


def _scaled_weights(t: Fraction) -> tuple[int, int, int]:
    """(u, v, s) with s * weight = u i + v j at t = a/b: u = 2b - a, v = a
    and s = 2b, all integers."""
    a, b = t.numerator, t.denominator
    return 2 * b - a, a, 2 * b


@dataclass(frozen=True)
class NuCertificate:
    """A witness for the value of nu at one parameter.

    cycle is a minimizing cycle in Maslov grading ambient_d representing
    the nonzero class; realizing_points are its summands of maximal
    weight; no uniqueness is claimed.
    """

    t: Fraction
    nu: Fraction
    realizing_points: tuple[LatticePoint, ...]
    cycle: tuple[LatticePoint, ...]


def _filtered_scan(z, boundaries, keys):
    """The least key level carrying the class of the cycle z, with a witness.

    z and boundaries are bitmask vectors over positions 0..n-1, z outside
    the boundary span, and keys[k] is the integer key of position k: the
    weight scaled by 2b for nu_at, the Alexander grading for tau.  Once the
    positions are reindexed so keys grow with the bit index, z reduced
    against the boundaries tops out where no boundary has its pivot, so
    adding any boundary can only raise that top.  Returns (level, witness)
    with the witness mask over the original positions.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)  # stable: ties by k
    newpos = [0] * len(keys)
    for new, old in enumerate(order):
        newpos[old] = new

    def remap(v, table):
        r = 0
        for b in bits(v):
            r |= 1 << table[b]
        return r

    b_ech = BitEchelon(remap(v, newpos) for v in boundaries)
    r = b_ech.reduce(remap(z, newpos))
    return keys[order[r.bit_length() - 1]], remap(r, order)


def nu_at(c: BifilteredComplex, t) -> NuCertificate:
    """nu at one parameter, with a minimizing cycle as certificate."""
    t = _check_t(t)
    require_admissible(c)
    pts = grading_slice(c, c.ambient_d)
    u, v, s = _scaled_weights(t)
    keys = [u * p.i + v * p.j for p in pts]
    level, witness = _filtered_scan(c._distinguished_cycle(),
                                    c._boundary_masks(c.ambient_d % 2), keys)
    support = bits(witness)
    cycle = tuple(pts[k] for k in support)
    realizing = tuple(pts[k] for k in support if keys[k] == level)
    return NuCertificate(t=t, nu=Fraction(level, s),
                         realizing_points=realizing, cycle=cycle)


def _realizer(cert: NuCertificate) -> LatticePoint:
    if len({(p.i, p.j) for p in cert.realizing_points}) != 1:
        raise AssertionError("distinct realizing coordinates off a breakpoint")
    return cert.realizing_points[0]


def upsilon(c: BifilteredComplex) -> PLFunction:
    """The full invariant as an exact piecewise-linear function on [0, 2].

    Weights of two distinct (i, j) coordinates can only swap order where
    they agree, so candidate breakpoints are their pairwise tie parameters.
    Between two consecutive ones, the point realizing nu at the midpoint
    must weigh exactly nu at both ends.
    """
    # the cache is filled only after require_admissible passed
    cached = c._cache.get("upsilon")
    if cached is not None:
        return cached[0]
    require_admissible(c)
    coords = sorted({(p.i, p.j) for p in grading_slice(c, c.ambient_d)})
    cands = {Fraction(0), Fraction(2)}
    for a, (i, j) in enumerate(coords):
        for i2, j2 in coords[a + 1:]:
            da = j - i - (j2 - i2)
            if da:
                t = Fraction(2 * (i2 - i), da)
                if 0 < t < 2:
                    cands.add(t)
    grid = sorted(cands)
    nu_vals = [nu_at(c, t).nu for t in grid]
    realizers = []
    for k in range(len(grid) - 1):
        p = _realizer(nu_at(c, (grid[k] + grid[k + 1]) / 2))
        for e in (k, k + 1):
            u, v, s = _scaled_weights(grid[e])
            if u * p.i + v * p.j != s * nu_vals[e]:
                raise AssertionError("nu not linear between candidate "
                                     "breakpoints")
        realizers.append(p)
    f = PLFunction(grid, [-2 * v for v in nu_vals])
    c._cache["upsilon"] = (f, grid, realizers, coords)
    return f


def check_symmetry(f: PLFunction) -> bool:
    """Exact test of the identity f(t) = f(2 - t)."""
    return f == f.reflected()


@dataclass(frozen=True)
class JumpCheck:
    """Consistency record for one interior breakpoint of upsilon.

    The realizing points on the two adjacent segments lie on one line of
    slope 1 - 2/t0: upsilon's self-check makes both weigh nu(t0).  The
    slope jump must equal (2/t0)(i' - i), and each slope i - j of its side.
    """

    t0: Fraction
    left_point: tuple[int, int]
    right_point: tuple[int, int]
    slope_before: int
    slope_after: int
    expected_jump: Fraction
    passed: bool
    degenerate: bool


def jump_report(c: BifilteredComplex, f: PLFunction) -> list[JumpCheck]:
    """Check the slope-jump identity at every interior breakpoint of f.

    f must be upsilon(c); a failed check indicates an engine bug, not a
    property of the knot.  It reads the realizers upsilon(c) recorded.
    """
    upsilon(c)
    own, grid, realizers, coords = c._cache["upsilon"]
    checks = []
    bps = f.breakpoints
    for k in range(1, len(bps) - 1):
        t0 = bps[k]
        # off c's grid, t0 lies inside one interval: both sides agree
        left = realizers[bisect_left(grid, t0) - 1]
        right = realizers[bisect_right(grid, t0) - 1]
        s_before, s_after = f.slopes[k - 1], f.slopes[k]
        expected = Fraction(2, 1) / t0 * (right.i - left.i)
        passed = (s_after - s_before == expected
                  and s_before == left.i - left.j
                  and s_after == right.i - right.j)
        # three or more lattice positions tying at the singular level
        u, v, s = _scaled_weights(t0)
        level = -own(t0) * s / 2
        tying = [(i, j) for i, j in coords if u * i + v * j == level]
        checks.append(JumpCheck(t0=t0, left_point=(left.i, left.j),
                                right_point=(right.i, right.j),
                                slope_before=s_before, slope_after=s_after,
                                expected_jump=expected, passed=passed,
                                degenerate=len(tying) > 2))
    return checks


def tau(c: BifilteredComplex) -> int:
    """The tau invariant from the Alexander filtration on the vertical complex.

    Restrict to algebraic level zero with the U-power-zero differential,
    then find the least Alexander level whose filtered subcomplex already
    carries the generator of the grading-zero homology.  Only defined for
    ambient grading zero (the three-sphere convention).
    """
    require_admissible(c)
    if c.ambient_d != 0:
        raise NonAdmissibleError("tau requires ambient grading 0, got %d"
                                 % c.ambient_d)
    out = c._out_entries()
    grade0 = [g for g in c.generators if g.maslov == 0]
    grade1 = [g for g in c.generators if g.maslov == 1]
    drop = [g.name for g in c.generators if g.maslov == -1]
    pos_drop = {n: k for k, n in enumerate(drop)}
    pos0 = {g.name: k for k, g in enumerate(grade0)}

    def vertical_image(name, positions):
        v = 0
        for tgt, k in out[name]:
            if k == 0 and tgt in positions:
                v ^= 1 << positions[tgt]
        return v

    cols = [vertical_image(g.name, pos_drop) for g in grade0]
    boundaries = [vertical_image(g.name, pos0) for g in grade1]
    z = _essential_cycle(kernel_basis(cols), BitEchelon(boundaries),
                         "vertical homology", 0)
    level, _ = _filtered_scan(z, boundaries, [g.alexander for g in grade0])
    return level
