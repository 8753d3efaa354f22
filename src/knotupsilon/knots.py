"""Builders for named and parametric knot complexes, and knot records.

Staircase complexes model L-space knots: the step lengths are the gaps
between the exponents of the (alternating-coefficient) Alexander
polynomial.  For a positive torus knot these are the runs of members and
gaps of its semigroup, so its complex needs no polynomial at all.  The
figure-eight gets the standard five-generator model (a unit plus one
box).  The (2, 2n+1)-cables of the left-handed trefoil enter through
Chen's closed-form upsilon, with no complex.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import groupby
from math import gcd

from . import engine
from .complexes import BifilteredComplex, dual
from .errors import FormatError, MissingDataError
from .plfunction import PLFunction


# ---------------------------------------------------------------------------
# complex constructors


def unknot_complex() -> BifilteredComplex:
    return BifilteredComplex._of(["u"], [0], [0], [], 0, "unknot")


def staircase(steps) -> BifilteredComplex:
    """Zig-zag complex with the given step lengths.

    steps must be a nonempty even-length list of positive integers,
    alternating horizontal and vertical, starting horizontal from the top
    generator.  The top generator sits at Alexander grading equal to the
    sum of the horizontal steps, with Maslov grading 0; odd-index
    generators carry the two outgoing arrows of each corner.  Palindromic
    steps give a symmetric complex: reversing the generators mirrors it.
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
    entries = []
    for k in range(1, len(steps) + 1, 2):
        entries += [(k, k - 1, steps[k - 1]), (k, k + 1, 0)]
    label = "staircase:" + ",".join(str(s) for s in steps)
    return BifilteredComplex._of(["x%d" % k for k in range(len(alex))],
                                 alex, maslov, entries, 0, label)


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
    """Five-generator model, a free unit plus one box; a <-> c mirrors it."""
    grading = [0, 1, 0, -1, 0]  # Alexander and Maslov agree on e, a, b, c, d
    # d(b) = U a + c, d(a) = d, d(c) = U d
    return BifilteredComplex._of(list("eabcd"), grading, grading, [
        (2, 1, 1), (2, 3, 0), (1, 4, 0), (3, 4, 1)], 0, "figure8")


def box_complex(prefix="box", alexander=0, maslov=0) -> BifilteredComplex:
    """One acyclic box summand, positioned by its distinguished corner."""
    a, m = alexander, maslov
    return BifilteredComplex._of(
        [prefix + x for x in "zhvw"], [a, a + 1, a - 1, a], [m, m + 1, m - 1, m],
        [(0, 1, 1), (0, 2, 0), (1, 3, 0), (2, 3, 1)], 0, None)


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


class KnotRecord(namedtuple("KnotRecord", [
        "name", "complex", "genus", "fibered", "monodromy_right_veering",
        "upsilon_override"])):
    """A named knot bundle: complex and/or externally supplied knowledge.

    monodromy_right_veering is three-state (True / False / None=unknown)
    and always an external assertion; nothing here computes monodromies.
    upsilon_override carries a closed-form invariant for knots given
    without a complex.  A named tuple whose every construction, _make
    and _replace included, refuses a negative genus and checks the genus
    against the complex.
    """

    __slots__ = ()

    def __new__(cls, name: str, complex: BifilteredComplex | None = None,
                genus: int | None = None, fibered: bool | None = None,
                monodromy_right_veering: bool | None = None,
                upsilon_override: PLFunction | None = None):
        if genus is not None and genus < 0:
            raise ValueError("genus must be non-negative")
        if complex is not None and genus is not None:
            top = max(complex._alex, default=genus)
            if genus != top:
                raise ValueError("genus %d disagrees with top Alexander "
                                 "grading %d" % (genus, top))
        return super().__new__(cls, name, complex, genus, fibered,
                               monodromy_right_veering, upsilon_override)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def upsilon_function(self) -> PLFunction:
        if self.upsilon_override is not None:
            return self.upsilon_override
        if self.complex is not None:
            return engine.upsilon(self.complex)
        raise MissingDataError("record %r carries no upsilon data" % self.name)

    def tau(self) -> int:
        """Minus the initial slope of upsilon_function's upsilon: read off
        the complex by engine.tau unless an override stands in for it."""
        if self.upsilon_override is None and self.complex is not None:
            return engine.tau(self.complex)
        return -self.upsilon_function().initial_slope


# ---------------------------------------------------------------------------
# builtin names (the CLI vocabulary)


# builtin_record refuses a torus knot whose semigroup walk takes more steps
_MAX_TORUS_STEPS = 100_000

# name -> (complex builder, right-veering), all fibered; a builder looks its
# constructor up when called, so a wrapper put on it sees the call
_FIXED = {
    "unknot": (lambda: unknot_complex(), True),
    "trefoil": (lambda: torus_knot_complex(2, 3), True),
    "trefoil-left": (
        lambda: torus_knot_complex(2, -3).relabeled("trefoil-left"), False),
    # not strongly quasipositive, under ten crossings: known non-right-veering
    "figure8": (lambda: figure_eight_complex(), False),
}


def builtin_record(name: str) -> KnotRecord:
    """Resolve a CLI-facing builtin name to a KnotRecord.

    Raises KeyError for unknown names, FormatError for a torus knot past
    _MAX_TORUS_STEPS and ValueError for malformed parameters.
    """
    if name in _FIXED:
        build, rv = _FIXED[name]
        c = build()
        return KnotRecord(name, complex=c, genus=max(c._alex), fibered=True,
                          monodromy_right_veering=rv)
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
            steps = (p - 1) * (abs(q) - 1)
            if p > 1 and steps > _MAX_TORUS_STEPS:
                raise FormatError("%s needs (p-1)(|q|-1) = %d semigroup "
                                  "steps, more than %d"
                                  % (name, steps, _MAX_TORUS_STEPS))
            c = torus_knot_complex(p, q)
            return KnotRecord(name, complex=c, genus=max(c._alex),
                              fibered=True, monodromy_right_veering=q > 0)
        if head == "staircase":
            c = staircase(args)
            return KnotRecord(name, complex=c, genus=max(c._alex))
        if head == "chen-cable":
            if len(args) != 1:
                raise ValueError("chen-cable:n takes one integer")
            n = args[0]
            return KnotRecord(name, genus=n + 2, fibered=True,
                              monodromy_right_veering=True,
                              upsilon_override=chen_cable_upsilon(n))
    raise KeyError("unknown builtin name %r" % name)
