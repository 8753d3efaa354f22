"""Checkable predicates built on the slope profile of upsilon.

The underlying implications are consumed as certified facts from the
literature, never re-proved here:

* a fibered knot whose upsilon attains slope -genus at a non-singular
  parameter in [0, 1) has right-veering monodromy (the converse fails,
  so the negative verdict is always "inconclusive");
* a fibered knot in the three-sphere supports the tight contact structure
  exactly when tau equals its genus (Hedden's criterion);
* upsilon is a concordance invariant, and among fibered knots the slope
  hypothesis pins the genus along a concordance; a mismatch is named at
  the first breakpoint of the canonical difference at which it is
  nonzero, found without building the difference;
* with the slope hypothesis anywhere on [0, 2], a fibered knot and its
  mirror are minimal under homotopy ribbon concordance, which upgrades a
  ribbon-cancelling partner to equality.

Each record holds only its evidence (witnesses, genus, reason tag) and
reads its verdict off it as a property; what it restates is derived in
to_json_dict, so no record can contradict itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import MissingDataError
from .knots import KnotRecord
from .plfunction import PLFunction, format_rational

_ONE = Fraction(1)
_AT_ONE = (_ONE, _ONE)  # the (start, end) an absent slope reads as


def _witness_below_one(f: PLFunction, slope: int):
    """The first segment of this slope starting in [0, 1), cut off at 1.
    Only a slope's first can start there: one read of f.slope_intervals,
    where an absent slope reads as starting at 1, and integer comparisons."""
    iv = f.slope_intervals(slope)
    a, b = iv[0] if iv else _AT_ONE
    if a.numerator < a.denominator:
        return a, (b if b.numerator < b.denominator else _ONE)
    return None


def _check_genus(genus: int) -> int:
    """The genus itself; a negative genus is refused, as no knot has one."""
    if genus < 0:
        raise ValueError("genus must be non-negative")
    return genus


def _interval_json(iv):
    if iv is None:
        return None
    return [format_rational(iv[0]), format_rational(iv[1])]


class RVCertificate(NamedTuple):
    """The right-veering slope test's witness: an open rational interval
    inside [0, 1) on which the slope equals -genus_used, or None."""

    witness_interval: tuple[Fraction, Fraction] | None
    genus_used: int

    @property
    def certified(self) -> bool:
        return self.witness_interval is not None

    @property
    def verdict(self) -> str:
        return "right_veering_certified" if self.certified else "inconclusive"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness_interval": _interval_json(self.witness_interval),
            "genus_used": self.genus_used,
            "rules_fired": (["slope-genus-right-veering"]
                            if self.certified else []),
        }


def certify_right_veering(upsilon_fn: PLFunction, genus: int) -> RVCertificate:
    """Certify right-veering monodromy from a slope of exactly -genus on
    the open part of some segment inside [0, 1).

    Breakpoints themselves are excluded as singular points.  Never returns
    a negative verdict: a failed test is only inconclusive.
    """
    return RVCertificate(_witness_below_one(upsilon_fn, -_check_genus(genus)),
                         genus)


def classify_tightness(tau: int, genus: int) -> str:
    """Hedden's criterion for the contact structure a fibered knot in the
    three-sphere supports: tight exactly when tau equals the genus."""
    return "tight" if tau == _check_genus(genus) else "overtwisted"


class ConcordanceVerdict(NamedTuple):
    """The reason tag of the obstruction that fired and its detail, or
    neither when no obstruction was found."""

    reason: str | None = None
    detail: str | None = None

    @property
    def obstructed(self) -> bool:
        return self.reason is not None

    @property
    def verdict(self) -> str:
        return "obstructed" if self.obstructed else "no_obstruction_found"

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason,
                "detail": self.detail}


def obstruct_concordance(k0: KnotRecord, k1: KnotRecord) -> ConcordanceVerdict:
    """Try, in order, each exact obstruction to k0 and k1 being concordant.

    1. differing upsilon functions (upsilon is a concordance invariant);
    2. both fibered with the slope -genus hypothesis on [0, 1) but
       different genera (concordance would force equal genera);
    3. k0 satisfies the slope hypothesis while k1 is fibered of equal
       genus with externally asserted non-right-veering monodromy.

    Only ever obstructs; "no_obstruction_found" decides nothing.
    """
    f0, f1 = k0.upsilon_function(), k1.upsilon_function()

    first = f0._first_difference(f1)
    if first is not None:
        return ConcordanceVerdict(
            "upsilon_mismatch",
            "upsilon functions differ at t=%s: %s vs %s"
            % tuple(map(format_rational, first)))

    holds0 = k0.genus is not None and _witness_below_one(f0, -k0.genus)
    if (holds0 and k0.fibered and k1.fibered and k1.genus is not None
            and k0.genus != k1.genus and _witness_below_one(f1, -k1.genus)):
        return ConcordanceVerdict(
            "genus_mismatch_lemma72",
            "slope hypothesis holds on both sides with genus %d vs %d"
            % (k0.genus, k1.genus))

    if (holds0 and k1.fibered and k1.genus == k0.genus
            and k1.monodromy_right_veering is False):
        return ConcordanceVerdict(
            "rv_mismatch_prop14",
            "%r is certified right-veering by its slope, %r is fibered of "
            "equal genus with non-right-veering monodromy"
            % (k0.name, k1.name))

    return ConcordanceVerdict()


class RibbonMinimalityReport(NamedTuple):
    """What the slope hypothesis buys for homotopy ribbon concordance.

    The minimality claims use the first segment of slope -genus anywhere
    on [0, 2]; the ribbon-cancellation uniqueness claim uses the one
    starting in [0, 1), cut off at 1.  Each witness is None when absent.
    """

    knot: str
    genus: int
    witness_interval: tuple[Fraction, Fraction] | None
    uniqueness_witness: tuple[Fraction, Fraction] | None

    @property
    def hypothesis_holds(self) -> bool:
        return self.witness_interval is not None

    @property
    def uniqueness_hypothesis_holds(self) -> bool:
        return self.uniqueness_witness is not None

    def to_json_dict(self) -> dict:
        minimal = ("minimal under homotopy ribbon concordance among fibered "
                   "knots")
        conclusions = ([minimal, "mirror is " + minimal]
                       if self.hypothesis_holds else [])
        if self.uniqueness_hypothesis_holds:
            conclusions.append(
                "any fibered partner with the same slope property whose "
                "connected sum with the mirror is ribbon must equal this knot")
        return {
            "knot": self.knot,
            "genus": self.genus,
            "slope_target": -self.genus,
            "hypothesis": {
                "holds": self.hypothesis_holds,
                "witness_interval": _interval_json(self.witness_interval),
                "t_interval": "[0,2]",
            },
            "ribbon_uniqueness_hypothesis": {
                "holds": self.uniqueness_hypothesis_holds,
                "witness_interval": _interval_json(self.uniqueness_witness),
                "t_interval": "[0,1]",
            },
            "conclusions": conclusions,
        }


def ribbon_minimality_report(k: KnotRecord) -> RibbonMinimalityReport:
    """Evaluate the slope hypothesis for a fibered knot record and report
    the minimality and uniqueness consequences."""
    if k.fibered is not True:
        raise MissingDataError("record %r is not known to be fibered" % k.name)
    if k.genus is None:
        raise MissingDataError("record %r has no genus" % k.name)
    f = k.upsilon_function()
    iv = f.slope_intervals(-k.genus)
    return RibbonMinimalityReport(k.name, k.genus, iv[0] if iv else None,
                                  _witness_below_one(f, -k.genus))
