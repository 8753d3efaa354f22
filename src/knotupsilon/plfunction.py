"""Exact piecewise-linear functions on [0, 2].

Breakpoints and values are rationals, segment slopes are integers; this is
exactly the class of functions the upsilon invariant lives in.  Functions
are stored in canonical form (adjacent collinear segments merged), so two
equal functions always compare equal as data.

One function, _merged, makes that form.  _slopes validates raw pieces
and derives their slopes once; the public constructor and from_json_dict
pass those to _merged.  _canonical, which wraps raw pieces unchecked, calls
it for negation, integer multiples, reflection and upsilon's sweep.  Sums
and differences go by value: both sides are read at the union of their
breakpoints and the constructor derives the slopes.  _first_difference is
the one walk over two breakpoint lists, by integer cross products: it
stops at the first canonical breakpoint where the difference is nonzero
and builds nothing.  _on_piece reads a value on a piece with one
normalization.  slope_intervals, the slope profile the certificates read,
maps each slope to the tuple of its segments: one scan on first use,
kept in a slot outside equality, hashing, repr and JSON.  format_rational
is Fraction's str, which prints "p/q" or "p".
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_right
from fractions import Fraction

from .errors import FormatError, _require_keys


def format_rational(x: Fraction) -> str:
    """Canonical string: "p/q" reduced with q >= 1, plain "p" for integers."""
    return str(x if isinstance(x, Fraction) else Fraction(x))


# a decimal with an exponent, which Fraction would expand with 10**exponent;
# compiled on first use, so importing the package does not pay for it
_EXPONENT = r"([-+]?[\d_.]+)[eE]([-+]?\d+(?:_\d+)*)"


def _longer_than(n: int, digits: int) -> bool:
    """Whether |n| has more than `digits` decimal digits."""
    n = abs(n)
    return n.bit_length() > 3 * digits and n >= 10 ** digits


def parse_rational(s) -> Fraction:
    """The rational written as "p/q", an integer or a decimal with an
    optional exponent.  One whose reduced numerator or denominator would
    have more digits than the interpreter converts is refused, and an
    exponent is checked before the power of ten is built."""
    # the interpreter's int/str conversion limit; 0 means off, and then
    # its default bounds the work all the same
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    try:
        text = str(s).strip()
    except ValueError as exc:  # an int too long to convert
        raise FormatError("integer has more than %d digits" % limit) from exc
    try:
        m = (re.fullmatch(_EXPONENT, text)
             if "e" in text or "E" in text else None)
        x = Fraction(m[1] if m else text)
        e = int(m[2]) if m else 0
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("invalid rational %r" % (s,)) from exc
    if e and x:
        # |p/q * 10**e| exceeds 10**limit once e passes limit plus the
        # length of q, and falls below 10**-limit once -e passes limit
        # plus the length of p; bit_length // 3 + 1 bounds a length
        if (e > limit + x.denominator.bit_length() // 3 + 1
                or -e > limit + x.numerator.bit_length() // 3 + 1):
            raise FormatError("rational %r has more than %d digits"
                              % (s, limit))
        x = x * 10 ** e if e > 0 else x / 10 ** -e
    if _longer_than(x.numerator, limit) or _longer_than(x.denominator, limit):
        raise FormatError("rational %r has more than %d digits" % (s, limit))
    return x


def _merged(bps, vals, slopes):
    """The canonical form, as three tuples: breakpoints, values and the
    integer slopes between them, less each interior breakpoint where the
    slope does not change.  The one place collinear pieces merge."""
    keep = [0] + [k for k in range(1, len(slopes))
                  if slopes[k] != slopes[k - 1]]
    return (tuple([bps[k] for k in keep] + [bps[-1]]),
            tuple([vals[k] for k in keep] + [vals[-1]]),
            tuple([slopes[k] for k in keep]))


def _on_piece(v, s, b, t):
    """v + s (t - b): the value at t of a piece, normalized once."""
    vd, bd, td = v.denominator, b.denominator, t.denominator
    dt = t.numerator * bd - b.numerator * td
    return Fraction(v.numerator * bd * td + s * vd * dt, vd * bd * td)


def _slopes(bps, vals):
    """The integer slopes of raw Fraction pieces on [0, 2], validated."""
    if len(bps) != len(vals) or len(bps) < 2:
        raise ValueError("need matching breakpoint/value lists, length >= 2")
    if bps[0] != 0 or bps[-1] != 2:
        raise ValueError("domain must be exactly [0, 2]")
    if any(b1 <= b0 for b0, b1 in zip(bps, bps[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    slopes = []
    for k in range(len(bps) - 1):
        s = (vals[k + 1] - vals[k]) / (bps[k + 1] - bps[k])
        if s.denominator != 1:
            raise ValueError("non-integer slope %s on [%s, %s]"
                             % (s, bps[k], bps[k + 1]))
        slopes.append(int(s))
    return slopes


class PLFunction:
    """A continuous piecewise-linear function on [0, 2].

    breakpoints: strictly increasing rationals starting at 0, ending at 2.
    values: the function values at the breakpoints.
    Slopes are derived and must be integers.
    """

    __slots__ = ("breakpoints", "values", "slopes", "_profile")

    def __init__(self, breakpoints, values):
        bps = [Fraction(b) for b in breakpoints]
        vals = [Fraction(v) for v in values]
        self.breakpoints, self.values, self.slopes = _merged(
            bps, vals, _slopes(bps, vals))
        self._profile = None

    @classmethod
    def _canonical(cls, breakpoints, values, slopes) -> "PLFunction":
        """Wrap breakpoints, values and integer slopes that agree, merging
        collinear pieces; no checks."""
        f = object.__new__(cls)
        f.breakpoints, f.values, f.slopes = _merged(breakpoints, values, slopes)
        f._profile = None
        return f

    @classmethod
    def zero(cls) -> "PLFunction":
        return cls([0, 2], [0, 0])

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if not 0 <= t <= 2:
            raise ValueError("argument %s outside [0, 2]" % t)
        return self._value(t)

    def _value(self, t: Fraction) -> Fraction:
        """The value at a Fraction t in [0, 2], unchecked."""
        k = min(bisect_right(self.breakpoints, t), len(self.slopes)) - 1
        return _on_piece(self.values[k], self.slopes[k],
                         self.breakpoints[k], t)

    def __eq__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return (self.breakpoints == other.breakpoints
                and self.values == other.values)

    def __hash__(self):
        return hash((self.breakpoints, self.values))

    def __repr__(self):
        pieces = ", ".join(
            "slope %d on [%s, %s]" % (s, format_rational(a), format_rational(b))
            for a, b, s in self.segments())
        return "<PLFunction %s>" % pieces

    def _merge(self, other, sign):
        """self + sign * other, by value at both sides' breakpoints."""
        bps = sorted(set(self.breakpoints).union(other.breakpoints))
        return PLFunction(bps, [self._value(t) + sign * other._value(t)
                                for t in bps])

    def _first_difference(self, other):
        """(t, self(t), other(t)) at the first breakpoint t of the canonical
        self - other where it is nonzero, or None when the two are equal.

        t is 0 when the values there differ in numerator or denominator,
        else the end of the first canonical piece of nonzero slope, found in
        one walk over integer slope differences and cross products;
        _on_piece reads both values there.  No difference is built.
        """
        fb, fv, fs, gb, gv, gs = (self.breakpoints, self.values, self.slopes,
                                  other.breakpoints, other.values, other.slopes)
        v, w = fv[0], gv[0]
        if v.numerator != w.numerator or v.denominator != w.denominator:
            return fb[0], v, w
        i = j = d = 0
        while i < len(fs):
            s = fs[i] - gs[j]
            if s != d:
                if d:
                    break
                d = s
            b, c = fb[i + 1], gb[j + 1]
            x = b.numerator * c.denominator - c.numerator * b.denominator
            if x < 0:
                i, t = i + 1, b
            elif x > 0:
                j, t = j + 1, c
            else:
                i, j, t = i + 1, j + 1, b
        else:
            return (fb[-1], fv[-1], gv[-1]) if d else None
        # t is the breakpoint object of the side that reached it, whose
        # value is stored; the other side is read off the piece it is on
        f = fv[i] if fb[i] is t else _on_piece(fv[i], fs[i], fb[i], t)
        g = gv[j] if gb[j] is t else _on_piece(gv[j], gs[j], gb[j], t)
        return t, f, g

    def __add__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return self._merge(other, 1)

    def __neg__(self):
        return -1 * self

    def __sub__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return self._merge(other, -1)

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return PLFunction._canonical(self.breakpoints,
                                     tuple(n * v for v in self.values),
                                     tuple(n * s for s in self.slopes))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def reflected(self) -> "PLFunction":
        """The function t -> f(2 - t)."""
        return PLFunction._canonical(
            tuple(2 - b for b in reversed(self.breakpoints)),
            self.values[::-1], tuple(-s for s in reversed(self.slopes)))

    @property
    def initial_slope(self) -> int:
        return self.slopes[0]

    def segments(self):
        """List of (start, end, slope) triples covering [0, 2]."""
        return [(self.breakpoints[k], self.breakpoints[k + 1], self.slopes[k])
                for k in range(len(self.slopes))]

    def slope_intervals(self, slope: int) -> tuple:
        """The (start, end) pairs, in order, of the segments of this slope,
        or ().  The first call builds every slope's tuple in one scan."""
        p = self._profile
        if p is None:
            bps, p = self.breakpoints, {}
            for s, a, b in zip(self.slopes, bps, bps[1:]):
                p.setdefault(s, []).append((a, b))
            p = self._profile = {s: tuple(v) for s, v in p.items()}
        return p.get(slope, ())

    # -- serialization

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "values": [format_rational(v) for v in self.values],
            "slopes": list(self.slopes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, obj) -> "PLFunction":
        _require_keys(obj, {"breakpoints", "values", "slopes"},
                      {"breakpoints", "values"}, "piecewise-linear function")
        for key in ("breakpoints", "values", "slopes"):
            if key in obj and not isinstance(obj[key], list):
                raise FormatError("%r must be a list" % key)
        bps = [parse_rational(b) for b in obj["breakpoints"]]
        vals = [parse_rational(v) for v in obj["values"]]
        try:
            slopes = _slopes(bps, vals)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        # slopes are derived data; check them against the raw segments
        if "slopes" in obj and obj["slopes"] != slopes:
            raise FormatError("declared slopes disagree with values")
        return cls._canonical(bps, vals, slopes)

    def sample_rows(self, step) -> list[tuple[Fraction, Fraction]]:
        """(t, value) pairs at multiples of step across [0, 2]."""
        step = Fraction(step)
        if step <= 0:
            raise ValueError("step must be positive")
        rows = []
        t = Fraction(0)
        while t <= 2:
            rows.append((t, self(t)))
            t += step
        return rows

    def sample_csv(self, step) -> str:
        return "".join("%s,%s\n" % (format_rational(t), format_rational(v))
                       for t, v in self.sample_rows(step))
