"""Closed forms the benchmark checks the program's answers against.

Nothing here calls knotupsilon.  A piecewise-linear function is the pair
(breakpoints, values) of tuples of Fractions on [0, 2] in canonical form
(no breakpoint where the slope does not change), which is also the form
knotupsilon.PLFunction stores, so equality is a plain tuple comparison.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

ZERO = ((Fraction(0), Fraction(2)), (Fraction(0), Fraction(0)))


def canonical(bps, vals):
    """Drop interior breakpoints where the slope does not change."""
    bps = [Fraction(b) for b in bps]
    vals = [Fraction(v) for v in vals]
    keep_b, keep_v = [bps[0]], [vals[0]]
    for k in range(1, len(bps) - 1):
        before = (vals[k] - keep_v[-1]) / (bps[k] - keep_b[-1])
        after = (vals[k + 1] - vals[k]) / (bps[k + 1] - bps[k])
        if before != after:
            keep_b.append(bps[k])
            keep_v.append(vals[k])
    keep_b.append(bps[-1])
    keep_v.append(vals[-1])
    return tuple(keep_b), tuple(keep_v)


def evaluate(f, t):
    bps, vals = f
    for k in range(len(bps) - 1):
        if bps[k] <= t <= bps[k + 1]:
            a, b = bps[k], bps[k + 1]
            return vals[k] + (vals[k + 1] - vals[k]) * (t - a) / (b - a)
    raise ValueError("argument %s outside [0, 2]" % t)


def add(*fs):
    bps = sorted({b for f in fs for b in f[0]})
    return canonical(bps, [sum(evaluate(f, t) for f in fs) for t in bps])


def negate(f):
    return f[0], tuple(-v for v in f[1])


def torus_genus(p, q):
    return (p - 1) * (abs(q) - 1) // 2


def torus_upsilon(p, q):
    """Upsilon of T(p, q) from its semigroup (Ozsvath-Stipsicz-Szabo 2017).

    For positive coprime p, q with genus g and S the semigroup generated
    by p and q, upsilon(t) is the maximum over m in 0..2g of
    -2 #(S and [0, m)) - t (g - m).  Negative q gives the mirror, -upsilon.
    """
    if gcd(p, q) != 1 or p < 2 or abs(q) < 2:
        raise ValueError("T(%d,%d) is not a nontrivial torus knot" % (p, q))
    g = torus_genus(p, q)
    in_s = _semigroup(p, q)
    lines, below = [], 0
    for m in range(2 * g + 1):
        lines.append((m - g, -2 * below))     # slope, intercept
        below += in_s[m]
    f = _upper_envelope(lines)
    return f if q > 0 else negate(f)


def _semigroup(p, q):
    """in_s[m] for m in 0..2g: whether m lies in the semigroup <p, |q|>."""
    top = 2 * torus_genus(p, q) + 1
    in_s = [False] * top
    for a in range(0, top, p):
        for b in range(a, top, abs(q)):
            in_s[b] = True
    return in_s


def torus_staircase(p, q):
    """Generators of the staircase complex of T(p, q): the terms of its
    Alexander polynomial, one wherever membership of the semigroup
    changes along 0..2g."""
    in_s = _semigroup(p, q)
    return sum(1 for m, here in enumerate(in_s)
               if here != (m > 0 and in_s[m - 1]))


def _upper_envelope(lines):
    """max over lines of slope * t + intercept on [0, 2], exactly."""
    def at(line, t):
        return line[0] * t + line[1]

    t = Fraction(0)
    cur = max(lines, key=lambda ln: (ln[1], ln[0]))
    bps, vals = [t], [at(cur, t)]
    while True:
        nxt = None
        for ln in lines:
            if ln[0] > cur[0]:
                meet = Fraction(cur[1] - ln[1], ln[0] - cur[0])
                # among lines overtaking at the same t the steepest wins
                if nxt is None or (meet, -ln[0]) < nxt[:2]:
                    nxt = (meet, -ln[0], ln)
        if nxt is None or nxt[0] >= 2:
            break
        t, cur = nxt[0], nxt[2]
        bps.append(t)
        vals.append(at(cur, t))
    bps.append(Fraction(2))
    vals.append(at(cur, Fraction(2)))
    return canonical(bps, vals)


def chen_cable_upsilon(n):
    """Chen's form for the (2, 2n+1)-cable of the left-handed trefoil:
    slope -(n-1) on [0, 2/3], -(n+2) on [2/3, 1], symmetric about t = 1."""
    third = Fraction(2, 3)
    v_third = -(n - 1) * third
    v_one = v_third - (n + 2) * (1 - third)
    return canonical([0, third, 1, 2 - third, 2],
                     [0, v_third, v_one, v_third, 0])


def summand_upsilon(token):
    """Closed form of one summand token: (p, q) for T(p, q) or "F" for the
    figure-eight, whose upsilon vanishes."""
    return ZERO if token == "F" else torus_upsilon(*token)


def summand_tau(token):
    if token == "F":
        return 0
    p, q = token
    return torus_genus(p, q) if q > 0 else -torus_genus(p, q)


def tie_candidates(coords):
    """Parameters in (0, 2) at which two distinct lattice coordinates
    (i, j) have equal weight (1 - t/2) i + (t/2) j."""
    coords = sorted(coords)
    out = set()
    for a, (i1, j1) in enumerate(coords):
        for i2, j2 in coords[a + 1:]:
            da = (j1 - i1) - (j2 - i2)
            if da:
                t = Fraction(2 * (i2 - i1), da)
                if 0 < t < 2:
                    out.add(t)
    return out


def format_rational(x):
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def segments(f):
    """(start, slope) of each segment of f."""
    bps, vals = f
    return [(bps[k], (vals[k + 1] - vals[k]) / (bps[k + 1] - bps[k]))
            for k in range(len(bps) - 1)]


def pl_json(f):
    """The bytes `knotupsilon upsilon` prints for f."""
    bps, vals = f
    slopes = [int(slope) for _, slope in segments(f)]
    return json.dumps({"breakpoints": [format_rational(b) for b in bps],
                       "values": [format_rational(v) for v in vals],
                       "slopes": slopes}, indent=2) + "\n"


def sample_csv(f, step):
    rows, t = [], Fraction(0)
    while t <= 2:
        rows.append("%s,%s\n" % (format_rational(t),
                                 format_rational(evaluate(f, t))))
        t += step
    return "".join(rows)
