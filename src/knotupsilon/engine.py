"""Exact computation of the upsilon invariant and its companions.

For a parameter t in [0, 2] the lattice point [x, i, j] gets the weight
(1 - t/2) i + (t/2) j.  Among cycles of Maslov grading ambient_d whose
class is nonzero, nu(t) is the least possible value of the maximal weight
of a summand, and upsilon(t) = -2 nu(t).

Everything happens on the finite grading-d slice: each generator of the
right Maslov parity contributes exactly one lattice point per homological
grading, so cycles, boundaries, and the filtered minimum are all finite
exact linear algebra over GF(2) with rational weights.  nu is computed one
way, by nu_at: one filtered reduction sweep, pivoting in weight order.  The
tests check it against two independent oracles, a growing-subcomplex test
and exhaustive cycle enumeration on small slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import (BifilteredComplex, LatticePoint, grading_slice,
                        require_admissible)
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


def _filtered_scan(cycles, boundaries, keys):
    """Least key level at which cycles outnumber boundaries.

    cycles and boundaries are bitmask vectors over positions 0..n-1 and
    keys[k] is the weight of position k.  Returns (level, witness) where
    witness is a cycle mask supported on positions of weight <= level and
    independent of the boundary span.  Raises if no level works (homology
    vanishes in this grading).
    """
    n = len(keys)
    order = sorted(range(n), key=lambda k: (keys[k], k))
    newpos = [0] * n
    for new, old in enumerate(order):
        newpos[old] = new

    def remap(v, table):
        r = 0
        for b in bits(v):
            r |= 1 << table[b]
        return r

    oldpos = order
    b_ech = BitEchelon(remap(v, newpos) for v in boundaries)
    z_ech = BitEchelon()
    for v in cycles:
        z_ech.add(remap(v, newpos))
    b_leads = b_ech.pivot_positions()
    z_leads = z_ech.pivot_positions()

    zi = bi = 0
    start = 0
    while start < n:
        level = keys[order[start]]
        end = start
        while end < n and keys[order[end]] == level:
            end += 1
        while zi < len(z_leads) and z_leads[zi] < end:
            zi += 1
        while bi < len(b_leads) and b_leads[bi] < end:
            bi += 1
        if zi > bi:
            for lead in z_leads[:zi]:
                rem = b_ech.reduce(z_ech.pivots[lead])
                if rem:
                    return level, remap(rem, oldpos)
            raise AssertionError("rank bookkeeping out of sync")
        start = end
    raise NonAdmissibleError("no essential cycle in the distinguished grading")


def nu_at(c: BifilteredComplex, t) -> NuCertificate:
    """nu at one parameter, with a minimizing cycle as certificate."""
    t = _check_t(t)
    require_admissible(c)
    d = c.ambient_d
    pts = grading_slice(c, d)
    keys = [filtration_value(t, p) for p in pts]
    level, witness = _filtered_scan(c._cycle_masks(d % 2),
                                    c._boundary_masks(d % 2), keys)
    cycle = tuple(pts[k] for k in bits(witness))
    realizing = tuple(p for p in cycle if filtration_value(t, p) == level)
    return NuCertificate(t=t, nu=level, realizing_points=realizing, cycle=cycle)


def upsilon(c: BifilteredComplex) -> PLFunction:
    """The full invariant as an exact piecewise-linear function on [0, 2].

    Weights of two slice points can only swap order where they agree, so
    candidate breakpoints are the pairwise tie parameters; between
    consecutive candidates nu is linear and three exact evaluations pin
    each segment.
    """
    # the cache is filled only after require_admissible passed
    cached = c._cache.get("upsilon")
    if cached is not None:
        return cached
    require_admissible(c)
    pts = grading_slice(c, c.ambient_d)
    cands = {Fraction(0), Fraction(2)}
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            p, q = pts[a], pts[b]
            da = p.j - p.i - (q.j - q.i)
            if da:
                t = Fraction(2 * (q.i - p.i), da)
                if 0 < t < 2:
                    cands.add(t)
    grid = sorted(cands)
    nu_vals = {t: nu_at(c, t).nu for t in grid}
    for a, b in zip(grid, grid[1:]):
        mid = (a + b) / 2
        if nu_at(c, mid).nu * 2 != nu_vals[a] + nu_vals[b]:
            raise AssertionError("nu not linear between candidate breakpoints")
    f = PLFunction(grid, [-2 * nu_vals[t] for t in grid])
    c._cache["upsilon"] = f
    return f


def check_symmetry(f: PLFunction) -> bool:
    """Exact test of the identity f(t) = f(2 - t)."""
    return f == f.reflected()


@dataclass(frozen=True)
class JumpCheck:
    """Consistency record for one interior breakpoint of upsilon.

    The realizing points on the two adjacent segments must lie on one line
    of slope 1 - 2/t0, and the slope jump must equal (2/t0)(i' - i).
    """

    t0: Fraction
    left_point: tuple[int, int]
    right_point: tuple[int, int]
    slope_before: int
    slope_after: int
    expected_jump: Fraction
    same_line: bool
    passed: bool
    degenerate: bool


def _realizer(cert: NuCertificate) -> tuple[int, int]:
    coords = {(p.i, p.j) for p in cert.realizing_points}
    if len(coords) != 1:
        raise AssertionError("distinct realizing coordinates off a breakpoint")
    return coords.pop()


def jump_report(c: BifilteredComplex, f: PLFunction) -> list[JumpCheck]:
    """Check the slope-jump identity at every interior breakpoint of f.

    f must be upsilon(c); a failed check indicates an engine bug, not a
    property of the knot.
    """
    require_admissible(c)
    checks = []
    bps = f.breakpoints
    pts = grading_slice(c, c.ambient_d)
    diagonals = [p.j - p.i for p in pts]
    span = max(max(diagonals) - min(diagonals), 1)
    # Tie parameters are 2m/da with |da| <= span, so two distinct ones differ
    # by at least 2/span**2: t0 -+ delta lies inside the segments next to t0
    # and is never a tie, which leaves one realizing coordinate there.
    delta = Fraction(1, 2 * span * span)
    for k in range(1, len(bps) - 1):
        t0 = bps[k]
        left = nu_at(c, t0 - delta)
        right = nu_at(c, t0 + delta)
        (i, j) = _realizer(left)
        (i2, j2) = _realizer(right)
        s_before, s_after = f.slopes[k - 1], f.slopes[k]
        expected = Fraction(2, 1) / t0 * (i2 - i)
        same_line = (filtration_value(t0, LatticePoint("", i, j))
                     == filtration_value(t0, LatticePoint("", i2, j2)))
        passed = (s_after - s_before == expected
                  and same_line
                  and s_before == i - j
                  and s_after == i2 - j2)
        # three or more lattice positions tying at the singular level
        nu0 = nu_at(c, t0).nu
        tying = {(p.i, p.j) for p in pts if filtration_value(t0, p) == nu0}
        degenerate = len(tying) > 2
        checks.append(JumpCheck(t0=t0, left_point=(i, j), right_point=(i2, j2),
                                slope_before=s_before, slope_after=s_after,
                                expected_jump=expected, same_line=same_line,
                                passed=passed, degenerate=degenerate))
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
    cycles = kernel_basis(cols)
    boundaries = [vertical_image(g.name, pos0) for g in grade1]
    if len(cycles) - BitEchelon(boundaries).rank != 1:
        raise NonAdmissibleError(
            "vertical homology is not one-dimensional in grading 0")
    keys = [g.alexander for g in grade0]
    level, _ = _filtered_scan(cycles, boundaries, keys)
    return level
