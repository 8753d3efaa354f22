"""Certificates: right-veering, tightness, concordance, ribbon minimality."""

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import knotupsilon as ku
from knotupsilon import KnotRecord, PLFunction
from knotupsilon.certificates import _witness_below_one
from knotupsilon.plfunction import _on_piece

from helpers import (corpus, mismatch_detail, random_staircase,
                     slice_cable_record)


# -- right-veering


def test_certify_chen_cable():
    cert = ku.certify_right_veering(ku.chen_cable_upsilon(8), 10)
    assert cert.certified
    assert cert.witness_interval == (F(2, 3), F(1))


def test_certify_trefoil():
    f = ku.upsilon(ku.torus_knot_complex(2, 3))
    cert = ku.certify_right_veering(f, 1)
    assert cert.certified
    assert cert.witness_interval == (F(0), F(1))


def test_certify_inconclusive_figure_eight():
    cert = ku.certify_right_veering(ku.upsilon(ku.figure_eight_complex()), 1)
    assert cert.verdict == "inconclusive"
    assert cert.witness_interval is None


def test_certify_inconclusive_left_trefoil():
    f = ku.upsilon(ku.torus_knot_complex(2, -3))
    assert f.initial_slope == 1
    assert not ku.certify_right_veering(f, 1).certified


def test_certify_needs_slope_inside_unit_interval():
    # slope -1 only on [1, 2]: no witness in [0, 1)
    f = PLFunction([0, 1, 2], [0, 0, -1])
    assert not ku.certify_right_veering(f, 1).certified


def test_certify_never_beyond_slope_bound():
    rng = random.Random(11)
    for _ in range(10):
        c = random_staircase(rng)
        f = ku.upsilon(c)
        genus = max(abs(s) for s in f.slopes) + 1
        assert not ku.certify_right_veering(f, genus).certified


def test_certify_rejects_negative_genus():
    # one message: the two certificates that take a bare genus refuse a
    # negative one, and no record carries one for the ribbon report
    for call in (lambda: ku.certify_right_veering(PLFunction.zero(), -1),
                 lambda: ku.classify_tightness(0, -3),
                 lambda: KnotRecord("negative", genus=-1, fibered=True,
                                    upsilon_override=PLFunction.zero())):
        with pytest.raises(ValueError, match="^genus must be non-negative$"):
            call()


def test_certify_unknot_degenerate_case():
    # genus 0 and slope 0 everywhere: the criterion applies vacuously
    assert ku.certify_right_veering(PLFunction.zero(), 0).certified


def test_slice_cable_shows_converse_fails():
    # right-veering asserted externally, yet the slope test cannot see it
    rec = slice_cable_record(3)
    cert = ku.certify_right_veering(rec.upsilon_function(), rec.genus)
    assert cert.verdict == "inconclusive"
    assert rec.monodromy_right_veering is True


def slopes_from_zero(bps, slopes, start=F(0)):
    """The PL function that starts at start, 0 by default, with these
    slopes."""
    values = [start]
    for a, b, s in zip(bps, bps[1:], slopes):
        values.append(values[-1] + s * (b - a))
    return PLFunction(bps, values)


def genus_two_witnesses(f):
    """The [0, 1) witness for slope -2 from both certificates, with the
    JSON form of each."""
    cert = ku.certify_right_veering(f, 2)
    rep = ku.ribbon_minimality_report(
        KnotRecord("k", genus=2, fibered=True, upsilon_override=f))
    return (cert.verdict, cert.witness_interval,
            cert.to_json_dict()["witness_interval"],
            rep.uniqueness_hypothesis_holds, rep.uniqueness_witness,
            rep.to_json_dict()["ribbon_uniqueness_hypothesis"]
            ["witness_interval"])


@pytest.mark.parametrize("bps, slopes, witness, text", [
    # a slope -2 segment straddling 1 is cut off there
    ([0, F(1, 2), F(3, 2), 2], (0, -2, 1), (F(1, 2), F(1)), ["1/2", "1"]),
    # one that ends exactly at 1 keeps its end
    ([0, F(1, 3), 1, 2], (0, -2, 1), (F(1, 3), F(1)), ["1/3", "1"]),
    # the first one starts below 1; a later one does not count
    ([0, F(1, 4), F(3, 4), 1, 2], (-2, 0, -1, -2), (F(0), F(1, 4)),
     ["0", "1/4"]),
])
def test_witness_cut_at_one(bps, slopes, witness, text):
    assert genus_two_witnesses(slopes_from_zero(bps, slopes)) == (
        "right_veering_certified", witness, text, True, witness, text)


def test_witness_starting_at_one_is_inconclusive():
    f = slopes_from_zero([0, 1, 2], (0, -2))
    assert genus_two_witnesses(f) == (
        "inconclusive", None, None, False, None, None)
    # the hypothesis on [0, 2] still sees the segment
    rep = ku.ribbon_minimality_report(
        KnotRecord("k", genus=2, fibered=True, upsilon_override=f))
    assert rep.hypothesis_holds and rep.witness_interval == (F(1), F(2))


# -- tightness


def test_classify_trefoil_tight():
    assert ku.classify_tightness(ku.tau(ku.torus_knot_complex(2, 3)), 1) == "tight"


def test_classify_chen_overtwisted():
    assert ku.classify_tightness(7, 10) == "overtwisted"


def test_classify_unknot_tight():
    assert ku.classify_tightness(0, 0) == "tight"


# -- concordance obstructions


def trefoil_record():
    return ku.builtin_record("trefoil")


def test_obstruct_trefoil_unknot():
    v = ku.obstruct_concordance(trefoil_record(), ku.builtin_record("unknot"))
    assert v.obstructed
    assert v.reason == "upsilon_mismatch"


def test_obstruct_self_is_silent():
    rec = trefoil_record()
    v = ku.obstruct_concordance(rec, rec)
    assert v.verdict == "no_obstruction_found"
    assert v.reason is None


def test_obstruct_mismatch_is_symmetric():
    a, b = trefoil_record(), ku.builtin_record("figure8")
    va = ku.obstruct_concordance(a, b)
    vb = ku.obstruct_concordance(b, a)
    assert (va.reason == "upsilon_mismatch") == (vb.reason == "upsilon_mismatch")
    assert va.obstructed and vb.obstructed


def test_obstruct_rv_mismatch():
    chen = ku.builtin_record("chen-cable:8")
    partner = KnotRecord("impostor", genus=10, fibered=True,
                         monodromy_right_veering=False,
                         upsilon_override=ku.chen_cable_upsilon(8))
    v = ku.obstruct_concordance(chen, partner)
    assert v.obstructed
    assert v.reason == "rv_mismatch_prop14"


def test_obstruct_rv_needs_equal_genus():
    chen = ku.builtin_record("chen-cable:8")
    partner = KnotRecord("wrong-genus", genus=11, fibered=True,
                         monodromy_right_veering=False,
                         upsilon_override=ku.chen_cable_upsilon(8))
    v = ku.obstruct_concordance(chen, partner)
    assert not v.obstructed


def test_obstruct_genus_mismatch():
    # same function, both slope hypotheses fire, genera differ
    f = PLFunction([0, F(1, 2), 1, F(3, 2), 2], [0, F(-3, 2), -4, F(-3, 2), 0])
    k0 = KnotRecord("g3", genus=3, fibered=True, upsilon_override=f)
    k1 = KnotRecord("g5", genus=5, fibered=True, upsilon_override=f)
    v = ku.obstruct_concordance(k0, k1)
    assert v.obstructed
    assert v.reason == "genus_mismatch_lemma72"


def test_obstruct_requires_upsilon():
    with pytest.raises(ku.MissingDataError):
        ku.obstruct_concordance(KnotRecord("nodata"), trefoil_record())


def test_obstruct_slice_cable_against_mirror_silent():
    # both slice: identical vanishing upsilon, no genus or rv branch fires
    k = slice_cable_record(3)
    j = KnotRecord("mirror", genus=6, fibered=True,
                   monodromy_right_veering=False,
                   upsilon_override=PLFunction.zero())
    v = ku.obstruct_concordance(k, j)
    assert v.verdict == "no_obstruction_found"


# -- where an upsilon mismatch is named


def mismatch(f0, f1):
    v = ku.obstruct_concordance(KnotRecord("a", upsilon_override=f0),
                                KnotRecord("b", upsilon_override=f1))
    return v.detail if v.reason == "upsilon_mismatch" else None


def random_pl(rng):
    """A random PL function whose first few pieces may be flat at 0, so
    that sums with it agree with their summand on a prefix."""
    den = rng.choice([1, 2, 3, 4, 6])
    cuts = rng.sample(range(1, 2 * den), rng.randint(0, min(4, 2 * den - 1)))
    bps = [F(0)] + [F(c, den) for c in sorted(cuts)] + [F(2)]
    flat = rng.randint(0, len(bps) - 1)
    slopes = [0] * flat + [rng.randint(-3, 3) for _ in bps[flat + 1:]]
    return slopes_from_zero(bps, slopes)


def test_mismatch_names_the_first_difference_on_corpus():
    records = [KnotRecord(name, complex=c) for name, c in corpus()]
    details = [ku.obstruct_concordance(a, b).detail
               for a in records for b in records]
    oracle = [mismatch_detail(a.upsilon_function(), b.upsilon_function())
              for a in records for b in records]
    assert details == oracle
    assert sum(d is not None for d in details) > len(records) ** 2 // 2


def test_mismatch_names_the_first_difference_on_random_pairs():
    rng = random.Random(12)
    seen = Counter()
    for _ in range(200):
        f0 = random_pl(rng)
        f1 = f0 + random_pl(rng) if rng.random() < 0.8 else random_pl(rng)
        if rng.random() < 0.2:
            f1 = f1 + PLFunction([0, 2], [1, 1])
        want = mismatch_detail(f0, f1)
        assert mismatch(f0, f1) == want, (f0, f1)
        seen[want.split(":")[0] if want else None] += 1
    # the pairs reach t = 0, t = 2, breakpoints inside, and equality
    assert {None, "upsilon functions differ at t=0",
            "upsilon functions differ at t=2"} <= set(seen)
    assert len(seen) > 6


# pairwise coprime denominators up to 97, mixed within one function
PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


@st.composite
def coprime_cuts(draw):
    """Interior breakpoints of (0, 2), each over a prime up to 97."""
    cuts = set()
    for d in draw(st.lists(st.sampled_from(PRIMES), max_size=5)):
        cuts.add(F(draw(st.integers(1, 2 * d - 1)), d))
    return sorted(cuts)


@st.composite
def first_difference_pairs(draw):
    """Two PL functions with coprime breakpoints and fractional values at
    0.  The second keeps some of the first's breakpoints, rebuilt as
    distinct but equal Fraction objects, and often the first's slopes
    and value at 0 up to one of them."""
    cuts0 = draw(coprime_cuts())
    bps0 = [F(0)] + cuts0 + [F(2)]
    slopes0 = draw(st.lists(st.integers(-3, 3), min_size=len(bps0) - 1,
                            max_size=len(bps0) - 1))
    start = st.fractions(-2, 2, max_denominator=97)
    v0 = draw(start)
    shared = [F(b.numerator, b.denominator) for b in cuts0
              if draw(st.booleans())]
    bps1 = [F(0)] + sorted(set(shared + draw(coprime_cuts()))) + [F(2)]
    slopes1 = draw(st.lists(st.integers(-3, 3), min_size=len(bps1) - 1,
                            max_size=len(bps1) - 1))
    # agree on the pieces before the k-th breakpoint of the second
    k = draw(st.integers(0, len(bps1) - 1))
    f0 = slopes_from_zero(bps0, slopes0, v0)
    for m in range(k):
        slopes1[m] = f0.slopes[bisect_right(f0.breakpoints, bps1[m]) - 1]
    v1 = v0 if draw(st.booleans()) else draw(start)
    return f0, slopes_from_zero(bps1, slopes1, v1)


def plain_value(f, t):
    """f(t) by plain Fraction arithmetic on the first piece holding t."""
    bps = f.breakpoints
    k = next(k for k in range(len(f.slopes)) if bps[k] <= t <= bps[k + 1])
    return f.values[k] + f.slopes[k] * (t - bps[k])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(pair=first_difference_pairs(),
       ts=st.lists(st.fractions(0, 2, max_denominator=97), max_size=4))
# the first difference on a breakpoint both functions hold as distinct
# objects: the difference has slope 1 on [0, 1/3] and -1 after it
@example(pair=(slopes_from_zero([0, F(1, 3), 2], (1, 0), F(1, 7)),
               slopes_from_zero([0, F(1, 3), 2], (0, 1), F(1, 7))), ts=[])
# a fractional value at 0 that differs
@example(pair=(slopes_from_zero([0, 2], (1,), F(2, 97)),
               slopes_from_zero([0, F(5, 89), 2], (1, 1), F(3, 97))),
         ts=[F(5, 89)])
# values at 0 that share a numerator, on otherwise equal functions
@example(pair=(slopes_from_zero([0, 2], (1,), F(1, 3)),
               slopes_from_zero([0, 2], (1,), F(1, 5))), ts=[])
def test_first_difference_on_coprime_pairs(pair, ts):
    f0, f1 = pair
    assert not {id(b) for b in f0.breakpoints} & {
        id(b) for b in f1.breakpoints}
    assert mismatch(f0, f1) == mismatch_detail(f0, f1)
    assert mismatch(f1, f0) == mismatch_detail(f1, f0)
    for f in pair:
        for t in ts + list(f0.breakpoints + f1.breakpoints):
            value = f(t)
            assert value == plain_value(f, t) and type(value) is F
            for v, s, b in zip(f.values, f.slopes, f.breakpoints):
                assert _on_piece(v, s, b, t) == v + s * (t - b)


def test_mismatch_at_end_of_first_nonzero_piece():
    # f0 - f1 is 0 on [0, 1/2] and has slope -1 on [1/2, 2]: the two
    # differ from 1/2 on, yet the detail names 2, the end of that piece
    f0 = slopes_from_zero([0, F(1, 2), 1, 2], (0, -1, -2))
    f1 = slopes_from_zero([0, 1, 2], (0, -1))
    want = "upsilon functions differ at t=2: -5/2 vs -1"
    assert mismatch(f0, f1) == mismatch_detail(f0, f1) == want


def test_obstruct_builds_no_difference(monkeypatch):
    # a machine-independent guard on the mismatch search: no merge walk
    # builds f0 - f1, and no value is found by bisection
    records = [ku.builtin_record(name) for name in
               ("trefoil", "trefoil-left", "figure8", "torus:3,4",
                "chen-cable:8")]
    fs = [rec.upsilon_function() for rec in records]  # cached from here on
    calls = Counter()
    for name in ("_merge", "__call__"):
        real = getattr(PLFunction, name)

        def counted(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(PLFunction, name, counted)
    verdicts = [ku.obstruct_concordance(a, b)
                for a in records for b in records if a is not b]
    assert {v.reason for v in verdicts} == {"upsilon_mismatch"}
    assert calls == Counter()
    fs[0] - fs[1]  # the counters see both methods
    fs[0](1)
    assert calls == Counter({"_merge": 1, "__call__": 1})


# the Fraction operations a concordance check would pay for: each goes
# through the numbers.Rational check and builds or compares a Fraction
FRACTION_OPS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__add__",
                "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def test_concordance_checks_do_no_fraction_arithmetic(monkeypatch):
    # a machine-independent guard on the concordance path: breakpoints are
    # ordered, values at 0 compared, witnesses read off the slope profile
    # and values read in integers, so once upsilon is cached no Fraction
    # is compared or combined
    records = [ku.builtin_record(name) for name in
               ("trefoil", "trefoil-left", "figure8", "torus:3,4",
                "torus:2,5", "chen-cable:8", "chen-cable:12")]
    for rec in records:
        rec.upsilon_function()  # cached from here on
    calls = Counter()
    for name in FRACTION_OPS:
        real = getattr(F, name)

        def counted(a, b, _real=real, _name=name):
            calls[_name] += 1
            return _real(a, b)

        monkeypatch.setattr(F, name, counted)
    verdicts = [ku.obstruct_concordance(a, b)
                for a in records for b in records]
    certs = [ku.certify_right_veering(rec.upsilon_function(), rec.genus)
             for rec in records]
    reports = [ku.ribbon_minimality_report(rec) for rec in records]
    assert calls == Counter()
    assert Counter(v.reason for v in verdicts) == Counter(
        {"upsilon_mismatch": 42, None: 7})
    assert sum(c.certified for c in certs) == 5
    assert sum(r.uniqueness_hypothesis_holds for r in reports) == 5
    x = F(1, 2)  # the counters see every operation; != calls __eq__ too
    (x < x, x <= x, x > x, x >= x, x == x, x != x, x + x, 1 + x, x - x,
     1 - x, x * x, 2 * x)
    assert calls == Counter(FRACTION_OPS + ("__eq__",))


# -- the slope profile the certificates read


def naive_reads(f, slope):
    """Every segment of this slope, and the first one starting in [0, 1),
    cut off at 1, read off f.segments() in Fraction arithmetic."""
    segs = tuple((a, b) for a, b, s in f.segments() if s == slope)
    below = [(a, min(b, F(1))) for a, b in segs if a < 1]
    return segs, (below[0] if below else None)


def profile_reads(f, slope):
    """The same two, as f.slope_intervals gives them and the certificates
    read them; the ribbon report and the right-veering test only for a
    genus, slope <= 0."""
    segs, below = f.slope_intervals(slope), _witness_below_one(f, slope)
    assert type(segs) is tuple
    if slope <= 0:
        rep = ku.ribbon_minimality_report(
            KnotRecord("k", genus=-slope, fibered=True, upsilon_override=f))
        assert rep.hypothesis_holds == (rep.witness_interval is not None)
        assert rep.uniqueness_hypothesis_holds == (below is not None)
        assert rep.uniqueness_witness == below
        assert rep.witness_interval == (segs[0] if segs else None)
        cert = ku.certify_right_veering(f, -slope)
        assert cert.certified == (below is not None)
        assert cert.witness_interval == below
    return segs, below


@st.composite
def profile_pairs(draw):
    """Two PL functions from 0 with breakpoints over primes up to 97 and
    slopes in -3..3, so that a slope often recurs on segments apart."""
    def function():
        bps = [F(0)] + draw(coprime_cuts()) + [F(2)]
        return slopes_from_zero(bps, draw(st.lists(
            st.integers(-3, 3), min_size=len(bps) - 1,
            max_size=len(bps) - 1)))
    return function(), function()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(pair=profile_pairs())
# slope -2 on two segments apart: the first, inside [0, 1), is read;
# slope -1 is absent; slope -2 of the second starts exactly at 1
@example(pair=(slopes_from_zero([0, F(1, 3), F(1, 2), 2], (-2, 1, -2)),
               slopes_from_zero([0, 1, 2], (0, -2))))
# a segment of slope -2 that ends exactly at 1, and one that crosses 1
@example(pair=(slopes_from_zero([0, F(1, 3), 1, 2], (0, -2, 1)),
               slopes_from_zero([0, F(1, 2), F(3, 2), 2], (0, -2, 1))))
def test_slope_profile_matches_segments(pair):
    f, g = pair
    for h in pair:
        for slope in range(-8, 9):
            assert profile_reads(h, slope) == naive_reads(h, slope), (h, slope)
        # built once, on the first read, with a tuple for every slope
        profile = h._profile
        assert set(profile) == set(h.slopes)
        assert h.slope_intervals(h.slopes[0]) is profile[h.slopes[0]]
        assert h._profile is profile
    # built after f's profile, each builds its own and carries none over
    for h in (-f, f.reflected(), f + g, 2 * f):
        assert h._profile is None
        for slope in range(-8, 9):
            assert profile_reads(h, slope) == naive_reads(h, slope), (h, slope)
        assert h._profile is not f._profile


# -- ribbon minimality


def test_ribbon_trefoil():
    rep = ku.ribbon_minimality_report(trefoil_record())
    assert rep.hypothesis_holds and rep.uniqueness_hypothesis_holds
    data = rep.to_json_dict()
    assert data["slope_target"] == -1
    assert data["hypothesis"]["t_interval"] == "[0,2]"
    assert data["ribbon_uniqueness_hypothesis"]["t_interval"] == "[0,1]"
    # the minimality claims for the knot and its mirror, then uniqueness
    assert len(data["conclusions"]) == 3
    assert data["conclusions"][1].startswith("mirror is minimal")


def test_ribbon_mirror_trefoil():
    rep = ku.ribbon_minimality_report(ku.builtin_record("trefoil-left"))
    # slope -g only appears on [1, 2] for the mirror
    assert rep.hypothesis_holds
    assert rep.witness_interval == (F(1), F(2))
    assert not rep.uniqueness_hypothesis_holds


def test_ribbon_figure_eight_fails():
    rep = ku.ribbon_minimality_report(ku.builtin_record("figure8"))
    assert not rep.hypothesis_holds
    assert rep.witness_interval is None
    # no minimality claim, for the knot or its mirror
    assert rep.to_json_dict()["conclusions"] == []


def test_ribbon_chen_cable():
    rep = ku.ribbon_minimality_report(ku.builtin_record("chen-cable:8"))
    assert rep.hypothesis_holds
    assert rep.witness_interval == (F(2, 3), F(1))


def test_ribbon_requires_fibered_and_genus():
    with pytest.raises(ku.MissingDataError):
        ku.ribbon_minimality_report(KnotRecord("unfibered", genus=1,
                                               upsilon_override=PLFunction.zero()))
    with pytest.raises(ku.MissingDataError):
        ku.ribbon_minimality_report(KnotRecord("no-genus", fibered=True,
                                               upsilon_override=PLFunction.zero()))
    with pytest.raises(ku.MissingDataError) as exc:
        ku.ribbon_minimality_report(KnotRecord("x", genus=1, fibered=True))
    assert str(exc.value) == "record 'x' carries no upsilon data"


# -- the headline joint example


@pytest.mark.parametrize("n", range(8, 13))
def test_right_veering_but_overtwisted_family(n):
    f = ku.chen_cable_upsilon(n)
    assert ku.certify_right_veering(f, n + 2).certified
    assert ku.classify_tightness(n - 1, n + 2) == "overtwisted"
    # tau from the closed form: minus the initial slope
    assert -f.initial_slope == n - 1
