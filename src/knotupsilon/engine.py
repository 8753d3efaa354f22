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
either crosses it; the tie search, the one walk at a tie, names these
crossing points.  Every witness runs to its first tie; the next is the
same with the lowest crossing point swapped in for the realizer where all
are falling cocycle points, or else a scan's.  Each segment is proved
before it is kept: a scan's from its certificate, whose cocycle half runs
once per distinct cocycle of a sweep, a carried one by induction from the
one before, with the cocycle's lower hull (_hull) for a walk over it.
Past t = 1 the slice's reversal (_flip), proved once to mirror each point
and to keep the boundaries and the class, maps each witness at t to one at
2 - t: the mirrors of those below end the sweep.  The sweep, kept on the
complex for tau and jump_report, holds the segment ends and each segment's
realizer, cycle and cocycle once, as slice positions.  It keeps t = a/b
unreduced, as every use is scale-invariant, and weighs the whole slice
(_weights) only where a scan starts and where its segment ends; a carried
segment weighs the few points its checks read.  On a segment upsilon is
-2 times its realizer's weight, of slope i - j; tau is minus the first
slope, since upsilon'(0) = -tau.
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


def _weights(s, a, b, xs):
    """2b times the weight at a/b, (2b - a) i + a j, of each x in xs."""
    si, sj, u = s.i, s.j, 2 * b - a
    return [u * si[x] + a * sj[x] for x in xs]


def nu_at(c: BifilteredComplex, t) -> NuCertificate:
    """nu at one parameter, with a minimizing cycle as certificate."""
    t = Fraction(t)
    if not 0 <= t <= 2:
        raise ValueError("parameter %s outside [0, 2]" % t)
    s = require_admissible(c)
    a, b = t.numerator, t.denominator
    keys = _weights(s, a, b, range(len(s.i)))
    top, witness, phi = _filtered_scan(bits(s.cycle), s.boundaries, keys,
                                       range(len(keys)))
    level, support = keys[top], sorted(witness)
    def points(ks):  # the certificate's LatticePoints, at these positions
        return tuple([LatticePoint(s.names[k], s.i[k], s.j[k]) for k in ks])
    return NuCertificate(
        t=t, nu=Fraction(level, 2 * b), cycle=points(support),
        realizing_points=points([k for k in support if keys[k] == level]),
        cocycle=points(sorted(phi)))


def _proves_segment(s, top, r, phi, w0, w1, proved, masks, last=None):
    """Whether the supports r and phi prove that nu follows the line of the
    point at top between the ends t0 and t1; all are positions in s.

    A scan's candidate (last None) is proved from scratch, w0 and w1 the
    slice's weight lists at the ends: as masks, r is s's cycle plus
    boundaries, phi vanishes on the echelon's rows, a basis of the
    boundaries, and meets that cycle once; at both ends r tops out and phi
    bottoms out at top.  proved holds the phi masks of this sweep that
    passed their half already: it reads phi alone.

    A carried one is proved by induction from last = (p, r', phi', hull),
    the witness proved up to t0 and phi''s _hull.  phi is phi', and r is r'
    with p swapped for top, not in r', and p + top a boundary: so r is in
    the class.  top weighs what p weighs at t0 (w0 holds both), so both
    checks there hold.  At t1 (w1 holds top's, its hull neighbour's, then
    r's weights) r tops out at top, and phi bottoms out there if top, a
    hull vertex, weighs no more than that neighbour of smaller j - i:
    points of larger j - i only gain on top past t0."""
    if last:
        p, rp, phip, hull = last
        (wp, wq), (wt, wn, *wr) = w0, w1
        return (phi is phip and top in hull and p in rp and top not in rp
                and r == [x for x in rp if x != p] + [top]
                and not s.echelon.reduce(1 << p | 1 << top)
                and wp == wq and max(wr) == wt <= wn)
    e = s.echelon
    if e.reduce(sum([1 << x for x in r]) ^ s.cycle):
        return False
    if masks.get(id(phi), (None,))[0] is not phi:  # id(phi): (phi, mask)
        masks[id(phi)] = phi, sum([1 << x for x in phi])
    pm = masks[id(phi)][1]
    if pm not in proved:
        if not ((pm & s.cycle).bit_count() & 1 and not any(
                [(pm & v).bit_count() & 1 for v in e.pivots.values()])):
            return False
        proved.add(pm)
    return all([max(map(w.__getitem__, r)) == w[top]
                == min(map(w.__getitem__, phi)) for w in (w0, w1)])


def _carried(s, top, r, phi, cross, ds):
    """(q, r + top + q, phi), carried past the end of top's segment, or None.
    cross is the tie search's list there, nonempty: the (j - i, position)
    pairs of the points of r and phi tying with top; q is the least one's.
    None if any of them rises, q is in r or top + q is no boundary."""
    (d, _), (_, q) = max(cross), min(cross)
    if d < ds[top] and q not in r and not s.echelon.reduce(1 << top | 1 << q):
        return q, [x for x in r if x != top] + [q], phi


def _hull(si, ds, phi):
    """phi's lower convex hull in the (j - i, i) plane, where the weight at
    t is i + (t/2)(j - i) up to scale: a dict from each vertex's position
    to its neighbour's of smaller j - i, the first vertex's to itself.  One
    sort of (j - i, i, position) triples, then a monotone chain that keeps
    the first of each j - i, so each coordinate's least position, and drops
    collinear points."""
    chain = []
    for d, i, x in sorted([(ds[x], si[x], x) for x in phi]):
        if chain and chain[-1][0] == d:
            continue
        while len(chain) > 1:
            d1, i1, _ = chain[-2]
            d2, i2, _ = chain[-1]
            if (d2 - d1) * (i - i1) > (i2 - i1) * (d - d1):
                break
            chain.pop()
        chain.append((d, i, x))
    xs = [x for _, _, x in chain]
    return dict(zip(xs, xs[:1] + xs))


def _flip(ids):
    """ids reversed: the one flip upsilon tries, x to n - 1 - x."""
    return ids[::-1]


def _proves_flip(s, flip, z):
    """Whether flip is an involution of s's positions taking each [x, i, j]
    to [flip[x], j, i] that maps z, a support, into z + B and each basis
    boundary into B (its mate, else the echelon's span): then a witness on
    [t0, t1] flips to one on [2 - t1, 2 - t0]."""
    if ([flip[y] for y in flip] != list(range(len(flip)))
            or [s.i[y] for y in flip] != s.j
            or s.echelon.reduce(sum([1 << flip[x] for x in z]) ^ s.cycle)):
        return False
    images = [sorted([flip[x] for x in b]) for b in s.boundaries]
    return images == s.boundaries[::-1] or not any(
        [s.echelon.reduce(sum([1 << x for x in v])) for v in images])


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
    follows p's line up to the first tie parameter t1 where points of r
    overtake p or points of phi drop below it (or t1 = 2); the tie search
    keeps them as cross.  Any witness ends there; _carried's, read off
    cross, or else a scan's is the next, proved before it is kept; a
    carried one reads phi's _hull, built at its first carry, not phi, and
    realizers must weigh the same where they meet.
    At the first start a/b >= 1 a flip _proves_flip holds turns each
    segment [t0, t1] below into [2 - t1, 2 - t0], cut at a/b, and ends the
    sweep; a refused one costs scans, never answers.
    """
    # the sweep is kept only after require_admissible passed
    if c._sweep is not None:
        return c._sweep.function
    s = require_admissible(c)
    si, sj, z = s.i, s.j, bits(s.cycle)
    ds = [j - i for i, j in zip(si, sj)]
    span = max(ds) - min(ds) + 1  # w * span + d orders as (w, d) does
    ids = list(range(len(si)))  # kept supports share these ints
    ends, witnesses, values, proved, masks = [(0, 1)], [], [], set(), {}
    flip = carry = None  # carry: cross, the last tie search's
    hulls = {}  # id(phi): phi's _hull, for the kept phi lists
    a, b = 0, 1
    w = _weights(s, a, b, ids)  # the weight list at a/b, None past a carry
    while a < 2 * b:
        if flip is None and a >= b:  # once
            flip = _flip(ids)
            if _proves_flip(s, flip, z):
                break
        held = carry and _carried(s, *witnesses[-1], carry, ds)
        if held:  # proved from the last witness and its phi's hull
            top, rs, ps = held
            phi = witnesses[-1][2]
            hull = hulls[id(phi)] = hulls.get(id(phi)) or _hull(si, ds, phi)
            last, low = (*witnesses[-1], hull), [hull.get(top, top)]
        else:
            last, w = None, w or _weights(s, a, b, ids)
            top, rs, ps = _filtered_scan(
                z, s.boundaries, [x * span + d for x, d in zip(w, ds)], ids)
            low = ps
        # q's line meets p's at 2 (i_p - i_q) / (d_q - d_p), with d = j - i;
        # t1 = n1 / m1 is the first such n / m, m > 0, in (t, 2); of a
        # carried phi only top's hull neighbour can fall to it first
        i0, d0 = si[top], ds[top]
        ties = ([(2 * (i0 - si[x]), ds[x] - d0, x) for x in rs if ds[x] > d0]
                + [(2 * (si[x] - i0), d0 - ds[x], x) for x in low if ds[x] < d0])
        n1, m1, cross = 2, 1, []
        for n, m, x in ties:
            if a * m < n * b:
                if n * m1 < n1 * m:
                    n1, m1, cross = n, m, [(ds[x], x)]
                elif n * m1 == n1 * m:
                    cross.append((ds[x], x))
        t1 = (n1, m1)
        if held:  # only the weights its checks read
            w0 = _weights(s, a, b, (last[0], top))
            w1 = _weights(s, *t1, [top] + low + rs)
        else:
            w0, w1 = w, _weights(s, *t1, ids)
        if not _proves_segment(s, top, rs, ps, w0, w1, proved, masks, last):
            if held:  # a refused carry gives way to a scan
                carry = None
                continue
            raise AssertionError("nu not linear on [%s, %s]: its certificate "
                                 "fails" % (Fraction(a, b), Fraction(*t1)))
        if not held and witnesses and w[top] != w[witnesses[-1][0]]:
            raise AssertionError("nu jumps at %s" % Fraction(a, b))
        ends.append(t1)
        witnesses.append((top, rs, ps))
        values.append(Fraction(-w1[0 if held else top], t1[1]))
        (a, b), w, carry = t1, None if held else w1, cross
    values.insert(0, Fraction(-2 * si[witnesses[0][0]]))  # upsilon at ends
    if a < 2 * b:  # the flip holds: the first h segments mirror past a/b
        h = sum([n * b < (2 * b - a) * m for n, m in ends[:-1]])
        wp, wq = _weights(s, a, b, (flip[witnesses[h - 1][0]], witnesses[-1][0]))
        if wp != wq:
            raise AssertionError("nu jumps at %s" % Fraction(a, b))
        lists = {id(xs): xs for _, r, phi in witnesses[:h] for xs in (r, phi)}
        flipped = {k: [flip[x] for x in xs] for k, xs in lists.items()}
        ends += [(2 * m - n, m) for n, m in ends[h - 1::-1]]
        witnesses += [(flip[p], flipped[id(r)], flipped[id(phi)])
                      for p, r, phi in witnesses[h - 1::-1]]
        values += values[h - 1::-1]  # upsilon(2 - t) = upsilon(t)
    grid = [Fraction(a, b) for a, b in ends]
    f = PLFunction._canonical(grid, values,
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
