"""Exact piecewise-linear functions on [0, 2].

Breakpoints and values are rationals, segment slopes are integers; this is
exactly the class of functions the upsilon invariant lives in.  Functions
are stored in canonical form (adjacent collinear segments merged), so two
equal functions always compare equal as data.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction

from .errors import FormatError


def format_rational(x: Fraction) -> str:
    """Canonical string: "p/q" reduced with q >= 1, plain "p" for integers."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_rational(s) -> Fraction:
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError("invalid rational %r" % (s,)) from exc


class PLFunction:
    """A continuous piecewise-linear function on [0, 2].

    breakpoints: strictly increasing rationals starting at 0, ending at 2.
    values: the function values at the breakpoints.
    Slopes are derived and must be integers.
    """

    __slots__ = ("breakpoints", "values", "slopes")

    def __init__(self, breakpoints, values):
        bps = [Fraction(b) for b in breakpoints]
        vals = [Fraction(v) for v in values]
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
        # canonical form: drop breakpoints where the slope does not change
        keep_bps, keep_vals, keep_slopes = [bps[0]], [vals[0]], []
        for k, s in enumerate(slopes):
            if keep_slopes and keep_slopes[-1] == s:
                keep_bps[-1] = bps[k + 1]
                keep_vals[-1] = vals[k + 1]
            else:
                keep_slopes.append(s)
                keep_bps.append(bps[k + 1])
                keep_vals.append(vals[k + 1])
        self.breakpoints = tuple(keep_bps)
        self.values = tuple(keep_vals)
        self.slopes = tuple(keep_slopes)

    @classmethod
    def zero(cls) -> "PLFunction":
        return cls([0, 2], [0, 0])

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        if not 0 <= t <= 2:
            raise ValueError("argument %s outside [0, 2]" % t)
        k = bisect_right(self.breakpoints, t) - 1
        if k == len(self.slopes):
            k -= 1
        return self.values[k] + self.slopes[k] * (t - self.breakpoints[k])

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

    def __add__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        bps = sorted(set(self.breakpoints) | set(other.breakpoints))
        return PLFunction(bps, [self(t) + other(t) for t in bps])

    def __neg__(self):
        return PLFunction(self.breakpoints, [-v for v in self.values])

    def __sub__(self, other):
        if not isinstance(other, PLFunction):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return PLFunction(self.breakpoints, [n * v for v in self.values])

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def reflected(self) -> "PLFunction":
        """The function t -> f(2 - t)."""
        return PLFunction([2 - b for b in reversed(self.breakpoints)],
                          list(reversed(self.values)))

    @property
    def initial_slope(self) -> int:
        return self.slopes[0]

    def segments(self):
        """List of (start, end, slope) triples covering [0, 2]."""
        return [(self.breakpoints[k], self.breakpoints[k + 1], self.slopes[k])
                for k in range(len(self.slopes))]

    def slope_intervals(self, slope: int):
        """Open intervals (as (start, end) pairs) where the slope is attained."""
        return [(a, b) for a, b, s in self.segments() if s == slope]

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
        if not isinstance(obj, dict):
            raise FormatError("piecewise-linear function must be a JSON object")
        unknown = set(obj) - {"breakpoints", "values", "slopes"}
        if unknown:
            raise FormatError("unknown keys: %s" % sorted(unknown))
        for key in ("breakpoints", "values"):
            if key not in obj:
                raise FormatError("missing key %r" % key)
        bps = [parse_rational(b) for b in obj["breakpoints"]]
        vals = [parse_rational(v) for v in obj["values"]]
        try:
            f = cls(bps, vals)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        if "slopes" in obj:
            # slopes are derived data; check them against the raw segments
            declared = list(obj["slopes"])
            raw = [(vals[k + 1] - vals[k]) / (bps[k + 1] - bps[k])
                   for k in range(len(bps) - 1)]
            if declared != raw:
                raise FormatError("declared slopes disagree with values")
        return f

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
