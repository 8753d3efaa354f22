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
upsilon sweeps t segment by segment: the cycle and the cocycle hold nu to
the realizing point's line up to the next tie parameter where a point of
either crosses it.  Every witness runs to its first tie, and a scan gives
one only where no candidate does or it fails its proof.  Past t = 1 the
slice's reversal, mirroring each point (_flip), turns weights at t into
weights at 2 - t, so the candidate is the mirror of the segment below 1
holding 2 - t; else, where only cocycle points cross, falling, the lowest,
swapped into the cycle for the realizer.  Each segment is proved from its
certificate before it is kept; a proof's cocycle half reads the cocycle
alone, so it runs once per distinct cocycle of a sweep.  The sweep, kept
on the complex for tau and jump_report, holds the segment ends and each
segment's realizer, cycle and cocycle once, as slice positions.  It keeps
t = a/b as two integers, unreduced, since every use is scale-invariant,
and builds the weight list at each t once: the scan's keys, the checks of
both segments meeting at t and upsilon(t) all read it.  On a segment
upsilon follows -2 times its realizer's weight, so its slope is the
realizer's i - j; tau is minus the first slope, since upsilon'(0) = -tau.
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


def _filtered_scan(z, boundaries, keys, ids):
    """Reduce the cycle z against the boundaries in key order, with a dual
    witness.

    z and the boundaries are supports, lists of the positions 0..n-1 in
    ids, with z outside the boundary span; keys[k] is position k's key:
    the weight scaled by 2b for nu_at; for upsilon that times a span
    wider than the range of j - i, plus j - i, which orders as the pair
    does; ties go by position.  Once the positions are reindexed so keys grow
    with the bit index, z reduced against the boundaries tops out at a
    position p where no boundary has its pivot, so adding any boundary can
    only raise that top.  The cocycle phi starts at p and, walking up the
    echelon rows pivoting above p, takes the pivot of each row it meets an
    odd number of times: it then vanishes on every boundary, meets z once
    and lies at or above p, so every cycle in the class reaches p's level.
    Returns (p, r, phi) with r the reduced z, as supports made of the ints
    in ids, in key order; phi's is recorded as the walk takes each row.
    """
    order = sorted(ids, key=keys.__getitem__)  # stable: ties by k
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
    phi, pivots, support = 1 << top, b_ech.pivots, [order[top]]
    for q in sorted(pivots):
        if q > top and (pivots[q] & phi).bit_count() & 1:
            phi |= 1 << q
            support.append(order[q])
    return order[top], [order[k] for k in bits(r)], support

def nu_at(c: BifilteredComplex, t) -> NuCertificate:
    """nu at one parameter, with a minimizing cycle as certificate."""
    t = Fraction(t)
    if not 0 <= t <= 2:
        raise ValueError("parameter %s outside [0, 2]" % t)
    s = require_admissible(c)
    a, b = t.numerator, t.denominator
    keys = [(2 * b - a) * i + a * j for i, j in zip(s.i, s.j)]
    top, witness, phi = _filtered_scan(bits(s.cycle), s.boundaries, keys,
                                       range(len(keys)))
    level, support = keys[top], sorted(witness)
    def points(ks):  # the certificate's LatticePoints, at these positions
        return tuple([LatticePoint(s.names[k], s.i[k], s.j[k]) for k in ks])
    return NuCertificate(
        t=t, nu=Fraction(level, 2 * b), cycle=points(support),
        realizing_points=points([k for k in support if keys[k] == level]),
        cocycle=points(sorted(phi)))


def _proves_segment(s, top, r, phi, w0, w1, proved):
    """Whether the supports r and phi prove that nu follows the line of the
    point at top between two ends, w0 and w1 the slice's weight lists
    there, each scaled by its own 2b; all are positions in the slice s.  As
    masks, r is s's cycle plus boundaries, phi vanishes on the echelon's
    rows, a basis of the boundaries, and meets that cycle once; at both
    ends r tops out and phi bottoms out at top.  proved holds the phi masks
    of this sweep that passed their half already: it reads phi alone."""
    e = s.echelon
    if e.reduce(sum([1 << x for x in r]) ^ s.cycle):
        return False
    pm = sum([1 << x for x in phi])
    if pm not in proved:
        if not ((pm & s.cycle).bit_count() & 1 and not any(
                [(pm & v).bit_count() & 1 for v in e.pivots.values()])):
            return False
        proved.add(pm)
    return all([max(map(w.__getitem__, r)) == w[top]
                == min(map(w.__getitem__, phi)) for w in (w0, w1)])


def _carried(s, top, r, phi, w, ds):
    """(q, r + top + q, phi), carried past the end of top's segment, or None.
    w is the weight list there and ds j - i by position; q is phi's point
    of least j - i falling below top's line there.  None if a point of r
    rises there too, or if top + q, the r half of its proof, is no boundary."""
    level, d0 = w[top], ds[top]
    drops = [(ds[x], x) for x in phi if w[x] == level and ds[x] < d0]
    if drops:
        q = min(drops)[1]
        if (q not in r and not any([w[x] == level and ds[x] > d0 for x in r])
                and not s.echelon.reduce(1 << top | 1 << q)):
            return q, [x for x in r if x != top] + [q], phi


def _flip(s, ids):
    """ids reversed, if that takes each [x, i, j] to [n - 1 - x, j, i]."""
    return ids[::-1] if s.i[::-1] == s.j else None


class _Sweep(NamedTuple):
    """upsilon's result, segment ends and witnesses (top, r, phi): each
    segment's realizer, cycle and cocycle as slice positions.  This is all
    the sweep keeps; a realizer is read as the slice's coordinates at top."""

    function: PLFunction
    grid: list[Fraction]
    witnesses: list[tuple[int, list[int], list[int]]]


def upsilon(c: BifilteredComplex) -> PLFunction:
    """The full invariant as an exact piecewise-linear function on [0, 2].

    A sweep from t = 0.  Ordered by weight and then by j - i, the order
    just right of t, a scan gives the point p realizing nu, a cycle r in
    the class topping out at p and a cocycle phi bottoming out at p.  For
    t' >= t the class keeps min_phi w_t' <= nu(t') <= max_r w_t', so nu
    follows p's line up to the first tie parameter t1 where a point of r
    overtakes p or a point of phi drops below it (or t1 = 2).  Any witness
    ends there: past t = 1 the _flip of the one holding 2 - t, else
    _carried's; a refused mirror gives way to the carry, and a refused
    carry to a scan.  Each segment is checked from its certificate before
    it is kept, and consecutive realizers must weigh the same where they
    meet, both read off the one weight list built at each t.
    """
    # the sweep is kept only after require_admissible passed
    if c._sweep is not None:
        return c._sweep.function
    s = require_admissible(c)
    si, sj, z = s.i, s.j, bits(s.cycle)
    ds = [j - i for i, j in zip(si, sj)]
    span = max(ds) - min(ds) + 1  # w * span + d orders as (w, d) does
    ids = list(range(len(si)))  # kept supports share these ints
    ends, witnesses, values, proved = [(0, 1)], [], [], set()
    flip = k = carry = None  # k: segment to mirror past 1; carry: try _carried

    def weights(a, b):  # 2b times the weight at a/b, by position
        return [(2 * b - a) * i + a * j for i, j in zip(si, sj)]

    a, b = 0, 1
    w = weights(a, b)
    while a < 2 * b:
        if k is None and a >= b:
            flip, k = _flip(s, ids), len(witnesses) - 1
        if flip:  # the mirror of the segment below 1 holding 2 - t
            while ends[k][0] * b >= (2 * b - a) * ends[k][1]:
                k -= 1
            top, rs, ps = witnesses[k]
            held = flip[top], [flip[x] for x in rs], [flip[x] for x in ps]
        else:
            held = carry and _carried(s, *witnesses[-1], w, ds)
        top, rs, ps = held or _filtered_scan(
            z, s.boundaries, [x * span + d for x, d in zip(w, ds)], ids)
        # q's line meets p's at 2 (i_p - i_q) / (d_q - d_p), with d = j - i;
        # t1 = n1 / m1 is the first such n / m, m > 0, in (t, 2)
        i0, d0 = si[top], ds[top]
        ties = [(2 * (i0 - si[x]), ds[x] - d0) for x in rs if ds[x] > d0]
        ties += [(2 * (si[x] - i0), d0 - ds[x]) for x in ps if ds[x] < d0]
        n1, m1 = 2, 1
        for n, m in ties:
            if a * m < n * b and n * m1 < n1 * m:
                n1, m1 = n, m
        t1 = (n1, m1)
        w1 = weights(*t1)
        if not _proves_segment(s, top, rs, ps, w, w1, proved):
            if held:  # a refused mirror tries the carry next, a carry scans
                flip, carry = None, bool(flip)
                continue
            raise AssertionError("nu not linear on [%s, %s]: its certificate "
                                 "fails" % (Fraction(a, b), Fraction(*t1)))
        if witnesses and w[top] != w[witnesses[-1][0]]:  # the last realizer
            raise AssertionError("nu jumps at %s" % Fraction(a, b))
        ends.append(t1)
        witnesses.append((top, rs, ps))
        values.append(Fraction(-w1[top], t1[1]))
        (a, b), w, carry = t1, w1, True
    grid = [Fraction(a, b) for a, b in ends]
    # on p's segment upsilon = -2 w_p: slope i - j, value -w[p] / b at
    # a/b, the end of p's segment and the start of the next one's, whose
    # realizer weighs the same there
    f = PLFunction._canonical(
        grid, [Fraction(-2 * si[witnesses[0][0]])] + values,
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
