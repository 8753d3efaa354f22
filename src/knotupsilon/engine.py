"""Exact computation of the upsilon invariant and its companions.

For a parameter t in [0, 2] the lattice point [x, i, j] gets the weight
(1 - t/2) i + (t/2) j.  Among cycles of Maslov grading ambient_d whose
class is nonzero, nu(t) is the least possible value of the maximal weight
of a summand, and upsilon(t) = -2 nu(t).

Everything happens on the finite grading-d slice: each generator of the
right Maslov parity contributes exactly one lattice point per homological
grading, so cycles, boundaries, and the filtered minimum are all finite
exact linear algebra over GF(2).  Every entry point reads that slice, as
integer lists by position, from the one record require_admissible builds
per complex, and nothing else of a complex but its own cache.  At t = a/b
every weight times 2b is the integer (2b - a) i + a j, which orders the
points exactly as the weights do.  One scan, _filtered_scan, reduces the
record's cycle representing the class against the boundaries in that
order: the result tops out at weight nu, and a cocycle read off the same
echelon shows that no cycle of the class tops out lower.  nu_at, the
public route to nu at one t, is one scan, and the one place LatticePoints
are built, for its certificate; two test oracles check it.
upsilon sweeps t with one scan per segment: the cycle and the cocycle
hold nu to the realizing point's line up to the next tie parameter where
a point of either crosses it.  Past t = 1 it scans only where the slice's
flip fails: [x, i, j] -> [flip x, j, i] turns weights at t into weights
at 2 - t, so flipped witnesses of a segment below 1 are candidates for
its mirror image.  Each segment is proved from its certificate before it
is kept.  The sweep, kept on the complex for tau and jump_report, holds
the segment ends and each segment's realizer, cycle and cocycle once, as
slice positions.  The sweep carries t = a/b as two integers as found,
since its every use is scale-invariant; Fractions are built only for the
grid and the values at the segment ends.  On a segment upsilon follows -2
times its realizer's weight, so its slope is the realizer's i - j.  tau is
minus the slope of the first segment, since upsilon'(0) = -tau.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple

from .complexes import BifilteredComplex, LatticePoint, require_admissible
from .errors import NonAdmissibleError
from .gf2 import BitEchelon, bits
from .plfunction import PLFunction


class NuCertificate(NamedTuple):
    """A witness for the value of nu at one parameter.

    cycle is a minimizing cycle in Maslov grading ambient_d representing
    the nonzero class, realizing_points its summands of maximal weight;
    cocycle, of weight at least nu at every point, meets every cycle of
    that class, which proves nu from below.  No uniqueness is claimed.
    """

    t: Fraction
    nu: Fraction
    realizing_points: tuple[LatticePoint, ...]
    cycle: tuple[LatticePoint, ...]
    cocycle: tuple[LatticePoint, ...]


def _filtered_scan(z, boundaries, keys):
    """Reduce the cycle z against the boundaries in key order, with a dual
    witness.

    z and the boundaries are supports, lists of positions 0..n-1, with z
    outside the boundary span, and keys[k] is the sort key of position k:
    the weight scaled by 2b for nu_at, that paired with j - i for upsilon;
    ties go by position.  Once the positions are reindexed so keys grow
    with the bit index, z reduced against the boundaries tops out at a
    position p where no boundary has its pivot, so adding any boundary can
    only raise that top.  The cocycle phi starts at p and, walking up the
    echelon rows pivoting above p, takes the pivot of each row it meets an
    odd number of times: it then vanishes on every boundary, meets z once
    and lies at or above p, so every cycle in the class reaches p's level.
    Returns (p, r, phi) with r the reduced z, as supports over the original
    positions, in key order.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)  # stable: ties by k
    newpos = [0] * len(keys)
    for new, old in enumerate(order):
        newpos[old] = new
    b_ech = BitEchelon()
    for support in boundaries:  # a plain loop beats sum() on short supports
        v = 0
        for b in support:
            v |= 1 << newpos[b]
        b_ech.add(v)
    r = b_ech.reduce(sum([1 << newpos[b] for b in z]))
    top = r.bit_length() - 1
    phi, pivots = 1 << top, b_ech.pivots
    for q in sorted(pivots):
        if q > top and (pivots[q] & phi).bit_count() & 1:
            phi |= 1 << q
    return (order[top], [order[k] for k in bits(r)],
            [order[k] for k in bits(phi)])

def nu_at(c: BifilteredComplex, t) -> NuCertificate:
    """nu at one parameter, with a minimizing cycle as certificate."""
    t = Fraction(t)
    if not 0 <= t <= 2:
        raise ValueError("parameter %s outside [0, 2]" % t)
    s = require_admissible(c)
    a, b = t.numerator, t.denominator
    keys = [(2 * b - a) * i + a * j for i, j in zip(s.i, s.j)]
    top, witness, phi = _filtered_scan(bits(s.cycle), s.boundaries, keys)
    level, support = keys[top], sorted(witness)
    def points(ks):  # the certificate's LatticePoints, at these positions
        return tuple([LatticePoint(s.names[k], s.i[k], s.j[k]) for k in ks])
    return NuCertificate(
        t=t, nu=Fraction(level, 2 * b), cycle=points(support),
        realizing_points=points([k for k in support if keys[k] == level]),
        cocycle=points(sorted(phi)))


def _proves_segment(s, top, r, phi, ends):
    """Whether the supports r and phi prove that nu follows the line of the
    point at top between the two ends, each t = a/b given as (a, b); all
    are positions in the slice s.  As masks, r is s's cycle plus boundaries,
    phi vanishes on the echelon's rows, a basis of the boundaries, and meets
    that cycle once; at both ends r tops out and phi bottoms out at top."""
    e, si, sj = s.echelon, s.i, s.j
    rm, pm = sum([1 << x for x in r]), sum([1 << x for x in phi])
    ok = (not e.reduce(rm ^ s.cycle) and (pm & s.cycle).bit_count() & 1
          and not any([(pm & w).bit_count() & 1 for w in e.pivots.values()]))
    for a, b in ends:
        u = 2 * b - a
        level = u * si[top] + a * sj[top]
        ok = (ok and max([u * si[x] + a * sj[x] for x in r]) == level
              and min([u * si[x] + a * sj[x] for x in phi]) == level)
    return bool(ok)


class _Sweep(NamedTuple):
    """upsilon's result, segment ends and witnesses (top, r, phi): each
    segment's realizer, cycle and cocycle as slice positions.  This is all
    the sweep keeps; a realizer is read as the slice's coordinates at top."""

    function: PLFunction
    grid: list[Fraction]
    witnesses: list[tuple[int, list[int], list[int]]]


def upsilon(c: BifilteredComplex) -> PLFunction:
    """The full invariant as an exact piecewise-linear function on [0, 2].

    A sweep from t = 0 with one scan per segment.  Ordered by weight and
    then by j - i, the order just right of t, the scan gives the point p
    realizing nu, a cycle r in the class topping out at p and a cocycle
    phi bottoming out at p.  For t' >= t the class keeps
    min_phi w_t' <= nu(t') <= max_r w_t', so nu follows p's line up to the
    first tie parameter t1 where a point of r overtakes p or a point of
    phi drops below it (or t1 = 2), and the next scan starts at t1.  Each
    segment is checked from its certificate before it is kept, and
    consecutive realizers must weigh the same where they meet.  From t = 1
    on, the slice's flip, if it has one, maps the witness of the scanned
    segment holding 2 - t to a segment ending where that one mirrors its
    start; once one fails its check, the sweep scans again from there.
    """
    # the sweep is kept only after require_admissible passed
    if c._sweep is not None:
        return c._sweep.function
    s = require_admissible(c)
    si, sj, z = s.i, s.j, bits(s.cycle)
    ijd = [(i, j, j - i) for i, j in zip(si, sj)]
    ids = list(range(len(si)))  # kept supports share these ints
    ends, witnesses = [(0, 1)], []
    flip = k = None  # k: the scanned segment to mirror, once t reaches 1
    a, b = 0, 1
    while a < 2 * b:
        u = 2 * b - a
        if k is None and a >= b:
            flip, k = s.flip, len(witnesses) - 1
        if flip:
            # the flipped witness of the scanned segment [t_k, t_k+1]
            # holding 2 - t is a candidate on [t, 2 - t_k]
            while ends[k][0] * b >= u * ends[k][1]:
                k -= 1
            top, rs, ps = witnesses[k]
            top, rs, ps = flip[top], [flip[x] for x in rs], [flip[x] for x in ps]
            t1 = (2 * ends[k][1] - ends[k][0], ends[k][1])
        else:
            top, rs, ps = _filtered_scan(
                z, s.boundaries, [(u * i + a * j, d) for i, j, d in ijd])
            rs, ps = [ids[x] for x in rs], [ids[x] for x in ps]
            # q's line meets p's at 2 (i_p - i_q) / (d_q - d_p), with
            # d = j - i; t1 = n1 / m1 is the first such n / m, m > 0, in (t, 2)
            i0, _, d0 = ijd[top]
            ties = [(2 * (i0 - i), d - d0)
                    for i, _, d in map(ijd.__getitem__, rs) if d > d0]
            ties += [(2 * (i - i0), d0 - d)
                     for i, _, d in map(ijd.__getitem__, ps) if d < d0]
            n1, m1 = 2, 1
            for n, m in ties:
                if a * m < n * b and n * m1 < n1 * m:
                    n1, m1 = n, m
            t1 = (n1, m1)
        if not _proves_segment(s, top, rs, ps, ((a, b), t1)):
            if flip:  # not a flip of c after all: scan from t on
                flip = None
                continue
            raise AssertionError("nu not linear on [%s, %s]: its certificate "
                                 "fails" % (Fraction(a, b), Fraction(*t1)))
        q = witnesses[-1][0] if witnesses else top  # the last realizer
        if u * (si[top] - si[q]) + a * (sj[top] - sj[q]):
            raise AssertionError("nu jumps at %s" % Fraction(a, b))
        ends.append(t1)
        witnesses.append((top, rs, ps))
        a, b = t1
    grid = [Fraction(a, b) for a, b in ends]
    # on p's segment upsilon = -2 w_p: slope i - j, value
    # -((2b - a) i + a j) / b at a/b, the end of p's segment and the start
    # of the next one's, whose realizer weighs the same there
    f = PLFunction._canonical(
        grid, [Fraction(-2 * si[witnesses[0][0]])]
        + [Fraction(-(2 * b - a) * si[p] - a * sj[p], b)
           for (a, b), (p, _, _) in zip(ends[1:], witnesses)],
        [si[p] - sj[p] for p, _, _ in witnesses])
    c._sweep = _Sweep(f, grid, witnesses)
    return f


class JumpCheck(NamedTuple):
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
    property of the knot.  It reads the realizers upsilon(c) recorded, each
    the slice's coordinates at its witness's top.
    """
    upsilon(c)
    _, grid, witnesses = c._sweep
    s = require_admissible(c)
    coords = set(zip(s.i, s.j))
    checks, bps = [], f.breakpoints
    for k in range(1, len(bps) - 1):
        t0 = bps[k]
        # off c's grid, t0 lies inside one interval: both sides agree
        left = witnesses[bisect_left(grid, t0) - 1][0]
        right = witnesses[bisect_right(grid, t0) - 1][0]
        li, lj, ri, rj = s.i[left], s.j[left], s.i[right], s.j[right]
        s_before, s_after = f.slopes[k - 1], f.slopes[k]
        expected = Fraction(2, 1) / t0 * (ri - li)
        passed = (s_after - s_before == expected
                  and s_before == li - lj and s_after == ri - rj)
        # three or more lattice positions tying at the singular level
        # 2b nu(t0), the left realizer's weight, which its witness proves
        a, b = t0.numerator, t0.denominator
        level = (2 * b - a) * li + a * lj
        tying = [(i, j) for i, j in coords if (2 * b - a) * i + a * j == level]
        checks.append(JumpCheck(t0=t0, left_point=(li, lj),
                                right_point=(ri, rj),
                                slope_before=s_before, slope_after=s_after,
                                expected_jump=expected, passed=passed,
                                degenerate=len(tying) > 2))
    return checks


def tau(c: BifilteredComplex) -> int:
    """The tau invariant, minus the initial slope of upsilon.

    Upsilon'(0) = -tau (Ozsvath-Stipsicz-Szabo 2017), so tau is read off
    the first segment of the same sweep.  Only defined for ambient
    grading zero (the three-sphere convention).
    """
    require_admissible(c)
    if c.ambient_d != 0:
        raise NonAdmissibleError("tau requires ambient grading 0, got %d"
                                 % c.ambient_d)
    return -upsilon(c).initial_slope
