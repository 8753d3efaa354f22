"""Builders for named and parametric knot complexes, plus polynomial tools.

Staircase complexes model L-space knots: the step lengths are the gaps
between the exponents of the (alternating-coefficient) Alexander
polynomial.  For a positive torus knot these are the runs of members and
gaps of its semigroup, so its complex needs no polynomial at all.  The
figure-eight gets the standard five-generator model (a unit plus one
box).  Cables enter either through the Alexander polynomial product
formula or, for the (2, 2n+1)-cables of the left-handed trefoil, through
Chen's closed-form upsilon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd

from . import engine
from .complexes import BifilteredComplex, DiffEntry, Generator, dual
from .errors import MissingDataError
from .plfunction import PLFunction


class LaurentPolyZ:
    """Integer Laurent polynomial with finitely many terms."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        data = dict(coeffs)
        self.coeffs = {e: c for e, c in data.items() if c != 0}

    @classmethod
    def one(cls) -> "LaurentPolyZ":
        return cls({0: 1})

    def coefficient(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_degree(self) -> int:
        return min(self.coeffs)

    @property
    def max_degree(self) -> int:
        return max(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolyZ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolyZ(out)

    def __neg__(self):
        return LaurentPolyZ({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolyZ(out)

    def shifted(self, k: int) -> "LaurentPolyZ":
        return LaurentPolyZ({e + k: c for e, c in self.coeffs.items()})

    def substitute_power(self, p: int) -> "LaurentPolyZ":
        """Return q with q(t) = self(t^p)."""
        if p < 1:
            raise ValueError("power must be >= 1")
        return LaurentPolyZ({e * p: c for e, c in self.coeffs.items()})

    def is_symmetric(self) -> bool:
        return all(self.coefficient(-e) == c for e, c in self.coeffs.items())

    def symmetrized(self) -> "LaurentPolyZ":
        """Recenter so that the coefficients are palindromic."""
        if self.is_zero():
            return self
        span = self.max_degree + self.min_degree
        if span % 2 != 0:
            raise ValueError("degree span is odd; cannot center symmetrically")
        out = self.shifted(-span // 2)
        if not out.is_symmetric():
            raise ValueError("polynomial is not symmetric")
        return out

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mag = "" if abs(c) == 1 and e != 0 else str(abs(c))
            if e == 0:
                var = ""
            elif e == 1:
                var = "t"
            else:
                var = "t^%d" % e
            piece = (mag + ("*" if mag and var else "") + var) or str(abs(c))
            terms.append(("- " if c < 0 else "+ ") + piece)
        head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
        return " ".join([head] + terms[1:])


def _poly_divide_exact(num: LaurentPolyZ, den: LaurentPolyZ) -> LaurentPolyZ:
    """Exact division of ordinary polynomials (raises on nonzero remainder)."""
    shift = min(num.min_degree, den.min_degree)
    rem = dict(num.shifted(-shift).coeffs)
    d = den.shifted(-shift)
    dd, dc = d.max_degree, d.coefficient(d.max_degree)
    quot = {}
    while rem:
        top = max(rem)
        if top < dd:
            raise ValueError("division is not exact")
        c, r = divmod(rem[top], dc)
        if r:
            raise ValueError("division is not exact")
        quot[top - dd] = c
        for e, dcoef in d.coeffs.items():
            key = top - dd + e
            val = rem.get(key, 0) - c * dcoef
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return LaurentPolyZ(quot)


def torus_knot_alexander(p: int, q: int) -> LaurentPolyZ:
    """Symmetrized Alexander polynomial of the (p, q) torus knot.

    (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), centered; the mirror
    (negative q) gives the same polynomial.
    """
    q = abs(q)
    if p < 2 or q < 2:
        raise ValueError("need p, |q| >= 2")
    if gcd(p, q) != 1:
        raise ValueError("(%d, %d) are not coprime" % (p, q))

    def cyc(n):
        return LaurentPolyZ({n: 1, 0: -1})

    raw = _poly_divide_exact(cyc(p * q) * cyc(1), cyc(p) * cyc(q))
    return raw.symmetrized()


def fibered_genus(delta: LaurentPolyZ) -> int:
    """Top degree of a symmetric Alexander polynomial: the genus of a
    fibered knot."""
    if delta.is_zero():
        raise ValueError("zero polynomial has no degree")
    return delta.max_degree


def cable_alexander(delta_k: LaurentPolyZ, p: int, q: int) -> LaurentPolyZ:
    """Alexander polynomial of the (p, q)-cable: companion(t^p) times the
    torus pattern polynomial."""
    if p < 1:
        raise ValueError("cabling parameter p must be >= 1")
    if not delta_k.is_symmetric():
        raise ValueError("companion polynomial must be symmetric")
    if p == 1 or abs(q) < 2:
        pattern = LaurentPolyZ.one()
    else:
        pattern = torus_knot_alexander(p, q)
    return (delta_k.substitute_power(p) * pattern).symmetrized()


# ---------------------------------------------------------------------------
# complex constructors


def unknot_complex() -> BifilteredComplex:
    return BifilteredComplex([Generator("u", 0, 0)], [], 0, "unknot")


def staircase(steps) -> BifilteredComplex:
    """Zig-zag complex with the given step lengths.

    steps must be a nonempty even-length list of positive integers,
    alternating horizontal and vertical, starting horizontal from the top
    generator.  The top generator sits at Alexander grading equal to the
    sum of the horizontal steps, with Maslov grading 0; odd-index
    generators carry the two outgoing arrows of each corner.
    """
    steps = [int(s) for s in steps]
    if not steps or len(steps) % 2 != 0 or any(s <= 0 for s in steps):
        raise ValueError("steps must be a nonempty even-length list of "
                         "positive integers")
    genus = sum(steps[0::2])
    alex = [genus]
    maslov = [0]
    for k, s in enumerate(steps):
        alex.append(alex[-1] - s)
        if k % 2 == 0:
            maslov.append(maslov[-1] + 1 - 2 * s)
        else:
            maslov.append(maslov[-1] - 1)
    gens = [Generator("x%d" % k, alex[k], maslov[k])
            for k in range(len(steps) + 1)]
    diff = []
    for k in range(1, len(steps) + 1, 2):
        diff.append(DiffEntry("x%d" % k, "x%d" % (k - 1), steps[k - 1]))
        diff.append(DiffEntry("x%d" % k, "x%d" % (k + 1), 0))
    label = "staircase:" + ",".join(str(s) for s in steps)
    return BifilteredComplex(gens, diff, 0, label)


def torus_knot_complex(p: int, q: int) -> BifilteredComplex:
    """Staircase model of the (p, q) torus knot; negative q gives the mirror.

    The steps are the run lengths of the semigroup <p, |q|> on [0, 2g),
    members and gaps alternating from the member 0: the gaps between the
    exponents of the Alexander polynomial, read off without division.
    """
    b = abs(q)
    if p < 2 or b < 2:
        raise ValueError("need p, |q| >= 2")
    if gcd(p, b) != 1:
        raise ValueError("(%d, %d) are not coprime" % (p, b))
    member = []
    for n in range((p - 1) * (b - 1)):
        member.append(n == 0 or (n >= p and member[n - p])
                      or (n >= b and member[n - b]))
    c = staircase([len(list(run)) for _, run in groupby(member)])
    if q < 0:
        c = dual(c)
    return c.relabeled("T(%d,%d)" % (p, q))


def figure_eight_complex() -> BifilteredComplex:
    """Standard five-generator model: a free unit plus one box."""
    gens = [Generator("e", 0, 0), Generator("a", 1, 1), Generator("b", 0, 0),
            Generator("c", -1, -1), Generator("d", 0, 0)]
    diff = [DiffEntry("b", "a", 1), DiffEntry("b", "c", 0),
            DiffEntry("a", "d", 0), DiffEntry("c", "d", 1)]
    return BifilteredComplex(gens, diff, 0, "figure8")


def box_complex(prefix="box", alexander=0, maslov=0) -> BifilteredComplex:
    """One acyclic box summand, positioned by its distinguished corner."""
    a, m = alexander, maslov
    gens = [Generator(prefix + "z", a, m), Generator(prefix + "h", a + 1, m + 1),
            Generator(prefix + "v", a - 1, m - 1), Generator(prefix + "w", a, m)]
    diff = [DiffEntry(prefix + "z", prefix + "h", 1),
            DiffEntry(prefix + "z", prefix + "v", 0),
            DiffEntry(prefix + "h", prefix + "w", 0),
            DiffEntry(prefix + "v", prefix + "w", 1)]
    return BifilteredComplex(gens, diff, 0, None)


def chen_cable_upsilon(n: int) -> PLFunction:
    """Chen's closed-form upsilon for the (2, 2n+1)-cable of the left-handed
    trefoil, n >= 8: slope -(n-1) on [0, 2/3] and -(n+2) on [2/3, 1],
    extended to [1, 2] by the symmetry across t = 1."""
    if n < 8:
        raise ValueError("the closed form is only asserted for n >= 8")
    third = Fraction(2, 3)
    v_third = -(n - 1) * third
    v_one = Fraction(2 - (n + 2))
    return PLFunction([0, third, 1, 2 - third, 2],
                      [0, v_third, v_one, v_third, 0])


# ---------------------------------------------------------------------------
# knot records


@dataclass
class KnotRecord:
    """A named knot bundle: complex and/or externally supplied knowledge.

    monodromy_right_veering is three-state (True / False / None=unknown)
    and always an external assertion; nothing here computes monodromies.
    upsilon_override carries a closed-form invariant for knots given
    without a complex.
    """

    name: str
    complex: BifilteredComplex | None = None
    genus: int | None = None
    fibered: bool | None = None
    monodromy_right_veering: bool | None = None
    upsilon_override: PLFunction | None = None

    def __post_init__(self):
        if self.complex is not None and self.genus is not None:
            top = max(g.alexander for g in self.complex.generators)
            if self.genus != top:
                raise ValueError(
                    "genus %d disagrees with top Alexander grading %d"
                    % (self.genus, top))

    def has_upsilon(self) -> bool:
        return self.upsilon_override is not None or self.complex is not None

    def upsilon_function(self) -> PLFunction:
        if self.upsilon_override is not None:
            return self.upsilon_override
        if self.complex is not None:
            return engine.upsilon(self.complex)
        raise MissingDataError("record %r carries no upsilon data" % self.name)

    def tau(self) -> int:
        """tau of the complex; a closed-form record's tau is minus the
        initial slope of its upsilon."""
        if self.complex is not None:
            return engine.tau(self.complex)
        return -self.upsilon_function().initial_slope


def slice_cable_record(p: int) -> KnotRecord:
    """The (p, 1)-cable of the fibered slice knot 8_20.

    Slice, hence upsilon vanishes identically; the monodromy is
    nevertheless right-veering (positive fractional Dehn twist), which is
    the standard example showing a vanishing-slope upsilon certifies
    nothing in the other direction.
    """
    if p < 2:
        raise ValueError("cabling parameter p must be >= 2")
    return KnotRecord(name="8_20-cable(%d,1)" % p, genus=2 * p, fibered=True,
                      monodromy_right_veering=True,
                      upsilon_override=PLFunction.zero())


# ---------------------------------------------------------------------------
# builtin names (the CLI vocabulary)


def _trefoil_record() -> KnotRecord:
    return KnotRecord("trefoil", complex=torus_knot_complex(2, 3), genus=1,
                      fibered=True, monodromy_right_veering=True)


def _trefoil_left_record() -> KnotRecord:
    c = torus_knot_complex(2, -3).relabeled("trefoil-left")
    return KnotRecord("trefoil-left", complex=c, genus=1, fibered=True,
                      monodromy_right_veering=False)


def _figure8_record() -> KnotRecord:
    # not strongly quasipositive and under ten crossings: known non-right-veering
    return KnotRecord("figure8", complex=figure_eight_complex(), genus=1,
                      fibered=True, monodromy_right_veering=False)


def _unknot_record() -> KnotRecord:
    return KnotRecord("unknot", complex=unknot_complex(), genus=0,
                      fibered=True, monodromy_right_veering=True)


def builtin_record(name: str) -> KnotRecord:
    """Resolve a CLI-facing builtin name to a KnotRecord.

    Raises KeyError for names outside the builtin vocabulary and
    ValueError for malformed parameters.
    """
    fixed = {
        "unknot": _unknot_record,
        "trefoil": _trefoil_record,
        "trefoil-left": _trefoil_left_record,
        "figure8": _figure8_record,
    }
    if name in fixed:
        return fixed[name]()
    if ":" in name:
        head, _, tail = name.partition(":")
        try:
            args = [int(s) for s in tail.split(",")] if tail else []
        except ValueError:
            raise ValueError("bad parameters in %r" % name) from None
        if head == "torus":
            if len(args) != 2:
                raise ValueError("torus:p,q takes two integers")
            p, q = args
            c = torus_knot_complex(p, q)
            genus = (p - 1) * (abs(q) - 1) // 2
            return KnotRecord(name, complex=c, genus=genus, fibered=True,
                              monodromy_right_veering=q > 0)
        if head == "staircase":
            c = staircase(args)
            genus = max(g.alexander for g in c.generators)
            return KnotRecord(name, complex=c, genus=genus)
        if head == "chen-cable":
            if len(args) != 1:
                raise ValueError("chen-cable:n takes one integer")
            n = args[0]
            return KnotRecord(name, genus=n + 2, fibered=True,
                              monodromy_right_veering=True,
                              upsilon_override=chen_cable_upsilon(n))
    raise KeyError(name)
