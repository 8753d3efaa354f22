"""Data model: validation, slices, tensor, dual, homology, JSON."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

import knotupsilon as ku
import knotupsilon.complexes
from knotupsilon import BifilteredComplex, DiffEntry, Generator, LatticePoint
from knotupsilon.complexes import require_admissible, require_valid
from knotupsilon.gf2 import BitEchelon, kernel_basis

from golden import _break
from helpers import (brute_d_squared_even, corpus, d_squared_lines,
                     enumerated_homology_dim, naive_tensor, positionally_equal,
                     random_admissible_complex, reference_violations, renamed)


def trefoil_by_hand():
    gens = [Generator("a", 1, 0), Generator("b", 0, -1), Generator("c", -1, -2)]
    diff = [DiffEntry("b", "a", 1), DiffEntry("b", "c", 0)]
    return BifilteredComplex(gens, diff, 0, "trefoil")


# -- records


T = ku.torus_knot_complex(2, 3)
POINT = LatticePoint("x0", 0, 1)

# each record type with its fields as keywords, and its field defaults
RECORD_FIELDS = [
    (Generator, dict(name="a", alexander=1, maslov=2), {}),
    (DiffEntry, dict(source="a", target="b", upower=1), {}),
    (LatticePoint, dict(generator="a", i=1, j=2), {}),
    (ku.ValidationReport, dict(violations=()), {}),
    (ku.NuCertificate, dict(t=Fraction(1, 2), nu=Fraction(1, 4),
                            realizing_points=(POINT,), cycle=(POINT,),
                            cocycle=(POINT,)), {}),
    (ku.JumpCheck, dict(t0=Fraction(2, 3), left_point=(0, 3),
                        right_point=(1, 1), slope_before=-3, slope_after=0,
                        expected_jump=Fraction(3), passed=True,
                        degenerate=False), {}),
    (ku.RVCertificate, dict(witness_interval=None, genus_used=2), {}),
    (ku.ConcordanceVerdict, dict(reason="upsilon_mismatch"),
     dict(detail=None)),
    (ku.RibbonMinimalityReport, dict(
        knot="trefoil", genus=1, witness_interval=(Fraction(0), Fraction(1)),
        uniqueness_witness=(Fraction(0), Fraction(1))), {}),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORD_FIELDS,
                         ids=[cls.__name__ for cls, _, _ in RECORD_FIELDS])
def test_record_construction(cls, fields, defaults):
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert record._fields == tuple(fields) + tuple(defaults)
    assert tuple(record) == tuple(fields.values()) + tuple(defaults.values())
    with pytest.raises(TypeError):
        cls(*record, None)


@pytest.mark.parametrize("record", [cls(**fields)
                                    for cls, fields, _ in RECORD_FIELDS])
def test_records_are_immutable_values(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, "b")
    with pytest.raises(AttributeError):
        record.extra = 0
    same = type(record)(*record)
    assert same == record and hash(same) == hash(record)
    assert len({record, same}) == 1
    assert record != record._replace(**{field: "b"})
    assert record == tuple(record)


def test_record_repr():
    assert (repr(Generator("a", 1, 2))
            == "Generator(name='a', alexander=1, maslov=2)")
    assert (repr(DiffEntry("a", "b", 0))
            == "DiffEntry(source='a', target='b', upower=0)")
    assert (repr(LatticePoint("a", 1, 2))
            == "LatticePoint(generator='a', i=1, j=2)")
    assert repr(ku.validate(T)) == "ValidationReport(violations=())"
    assert (repr(ku.nu_at(T, Fraction(1, 2)))
            == "NuCertificate(t=Fraction(1, 2), nu=Fraction(1, 4), "
            "realizing_points=(LatticePoint(generator='x0', i=0, j=1),), "
            "cycle=(LatticePoint(generator='x0', i=0, j=1),), "
            "cocycle=(LatticePoint(generator='x0', i=0, j=1), "
            "LatticePoint(generator='x2', i=1, j=0)))")
    t34 = ku.torus_knot_complex(3, 4)
    assert (repr(ku.jump_report(t34, ku.upsilon(t34))[0])
            == "JumpCheck(t0=Fraction(2, 3), left_point=(0, 3), "
            "right_point=(1, 1), slope_before=-3, slope_after=0, "
            "expected_jump=Fraction(3, 1), passed=True, degenerate=False)")
    assert (repr(ku.certify_right_veering(ku.upsilon(T), 1))
            == "RVCertificate(witness_interval=(Fraction(0, 1), "
            "Fraction(1, 1)), genus_used=1)")
    trefoil = ku.builtin_record("trefoil")
    assert (repr(ku.obstruct_concordance(trefoil, ku.builtin_record("unknot")))
            == "ConcordanceVerdict(reason='upsilon_mismatch', "
            "detail='upsilon functions differ at t=1: -1 vs 0')")
    assert (repr(ku.obstruct_concordance(trefoil, trefoil))
            == "ConcordanceVerdict(reason=None, detail=None)")
    assert (repr(ku.ribbon_minimality_report(trefoil))
            == "RibbonMinimalityReport(knot='trefoil', genus=1, "
            "witness_interval=(Fraction(0, 1), Fraction(1, 1)), "
            "uniqueness_witness=(Fraction(0, 1), Fraction(1, 1)))")


def test_records_read_their_verdicts_off_their_evidence():
    unit = (Fraction(0), Fraction(1))
    assert ku.ValidationReport(()).ok
    assert not ku.ValidationReport(("d^2 != 0",)).ok
    cert = ku.RVCertificate(unit, 3)
    assert cert.certified and cert.verdict == "right_veering_certified"
    cert = ku.RVCertificate(None, 3)
    assert not cert.certified and cert.verdict == "inconclusive"
    verdict = ku.ConcordanceVerdict("upsilon_mismatch")
    assert verdict.obstructed and verdict.verdict == "obstructed"
    verdict = ku.ConcordanceVerdict()
    assert not verdict.obstructed
    assert verdict.verdict == "no_obstruction_found"
    report = ku.RibbonMinimalityReport("k", 2, unit, None)
    assert report.hypothesis_holds and not report.uniqueness_hypothesis_holds
    report = ku.RibbonMinimalityReport("k", 2, None, None)
    assert not report.hypothesis_holds
    assert report.to_json_dict() == {
        "knot": "k", "genus": 2, "slope_target": -2,
        "hypothesis": {"holds": False, "witness_interval": None,
                       "t_interval": "[0,2]"},
        "ribbon_uniqueness_hypothesis": {
            "holds": False, "witness_interval": None, "t_interval": "[0,1]"},
        "conclusions": []}
    # nine fields in all, each a piece of evidence
    records = (ku.ValidationReport, ku.RVCertificate, ku.ConcordanceVerdict,
               ku.RibbonMinimalityReport)
    assert sum(len(cls._fields) for cls in records) == 9


# -- validation


def test_trefoil_staircase_validates():
    report = ku.validate(trefoil_by_hand())
    assert report.ok
    assert report.violations == ()


def test_unknot_validates():
    assert ku.validate(ku.unknot_complex()).ok


def test_maslov_constraint_reported():
    c = BifilteredComplex(
        [Generator("a", 0, 0), Generator("b", 1, 0)],
        [DiffEntry("b", "a", 1)], 0)
    report = ku.validate(c)
    assert not report.ok
    assert any("Maslov" in v for v in report.violations)


def test_alexander_constraint_reported():
    # arrow pointing up: target Alexander grading exceeds source + upower
    c = BifilteredComplex(
        [Generator("a", 2, 0), Generator("b", 0, 1)],
        [DiffEntry("b", "a", 1)], 0)
    report = ku.validate(c)
    assert any("Alexander" in v for v in report.violations)


def test_duplicate_names_reported():
    c = BifilteredComplex([Generator("a", 0, 0), Generator("a", 1, 2)], [], 0)
    assert any("duplicate generator" in v for v in ku.validate(c).violations)


def test_unknown_generator_reported():
    c = BifilteredComplex([Generator("a", 0, 0)], [DiffEntry("a", "z", 0)], 0)
    assert any("unknown generator" in v for v in ku.validate(c).violations)


def test_negative_upower_reported():
    c = BifilteredComplex(
        [Generator("a", 0, 0), Generator("b", 0, -3)],
        [DiffEntry("a", "b", -1)], 0)
    assert any("negative U-power" in v for v in ku.validate(c).violations)


def test_negative_upower_alone_is_reported():
    # the entry obeys the Maslov and Alexander rules; only k < 0 is wrong
    c = BifilteredComplex(
        [Generator("a", 1, 0), Generator("b", 0, -3)],
        [DiffEntry("a", "b", -1)], 0)
    assert ku.validate(c).violations == (
        "entry (a -> b) has negative U-power -1",)


def test_duplicate_entry_reported():
    c = BifilteredComplex(
        [Generator("a", 1, 0), Generator("b", 0, -1)],
        [DiffEntry("b", "a", 1), DiffEntry("b", "a", 1)], 0)
    assert any("duplicate differential entry" in v
               for v in ku.validate(c).violations)


def test_d_squared_violation_reported():
    # single path a -> b -> c of odd multiplicity
    c = BifilteredComplex(
        [Generator("a", 1, 0), Generator("b", 0, -1), Generator("c", -1, -2)],
        [DiffEntry("a", "b", 0), DiffEntry("b", "c", 0)], 0)
    assert any("d^2" in v for v in ku.validate(c).violations)


# corpus knots small enough that a tensor of three stays a quick oracle run
SMALL_KNOTS = [name for name, c in corpus() if len(c.generators) <= 5]


def _mutated(c, rng, drops, adds):
    """c with entries dropped and entries added that obey the Maslov and
    Alexander rules, so that d^2 is the only check left to fail."""
    diff = list(c.differential)
    for _ in range(min(drops, len(diff))):
        diff.pop(rng.randrange(len(diff)))
    present = set(diff)
    for _ in range(adds):
        for _ in range(20):
            x, z = rng.choice(c.generators), rng.choice(c.generators)
            k, odd = divmod(z.maslov - x.maslov + 1, 2)
            e = DiffEntry(x.name, z.name, k)
            if (not odd and k >= 0 and x.alexander - z.alexander + k >= 0
                    and e not in present):
                diff.insert(rng.randrange(len(diff) + 1), e)
                present.add(e)
                break
    return BifilteredComplex(c.generators, diff, c.ambient_d, c.label)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1),
       names=st.lists(st.sampled_from(SMALL_KNOTS), min_size=1, max_size=3),
       drops=st.integers(0, 3), adds=st.integers(0, 3))
def test_d_squared_report_matches_path_count_oracle(seed, names, drops, adds):
    knots = dict(corpus())
    c = _mutated(reduce(ku.tensor, [knots[n] for n in names]),
                 random.Random(seed), drops, adds)
    lines = [v for v in ku.validate(c).violations if v.startswith("d^2")]
    assert lines == d_squared_lines(c)
    assert bool(lines) != brute_d_squared_even(c)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1),
       names=st.lists(st.sampled_from(SMALL_KNOTS), min_size=1, max_size=4),
       drops=st.integers(0, 2), adds=st.integers(0, 2),
       faults=st.lists(st.integers(0, 5), max_size=3), tripled=st.booleans())
# sum-tower size: the trefoil^#5, whole, with a tripled entry, and with two
# faults and a tripled entry
@example(seed=0, names=["trefoil"] * 5, drops=0, adds=0, faults=[],
         tripled=False)
@example(seed=1, names=["trefoil"] * 5, drops=0, adds=0, faults=[],
         tripled=True)
@example(seed=2, names=["trefoil"] * 5, drops=1, adds=1, faults=[3, 5],
         tripled=True)
def test_validate_matches_reference_validator(seed, names, drops, adds,
                                              faults, tripled):
    # d^2 faults from dropped and added entries, then faults of the given
    # kinds (unknown target, dropped generator, doubled entry, doubled
    # name, any pair and U-power), then maybe one entry three times over,
    # which XOR leaves with one bit
    knots = dict(corpus())
    rng = random.Random(seed)
    c = _mutated(reduce(ku.tensor, [knots[n] for n in names]), rng, drops,
                 adds)
    gens, diff = list(c.generators), list(c.differential)
    for kind in faults:
        _break(rng, gens, diff, kind)
    if tripled and diff:
        e = rng.choice(diff)
        for _ in range(2):
            diff.insert(rng.randrange(len(diff) + 1), e)
    c = BifilteredComplex(gens, diff, c.ambient_d, c.label)
    assert ku.validate(c).violations == reference_violations(c)


def test_tripled_entry_is_reported_twice():
    # XOR leaves one bit for three copies; the weights then fall short
    t = ku.torus_knot_complex(2, 3)
    e = t.differential[0]
    c = BifilteredComplex(t.generators, t.differential + (e, e))
    line = "duplicate differential entry (%s -> %s, U^%d)" % e
    assert ku.validate(c).violations == (line, line)
    assert c._matrix().cols == t._matrix().cols
    assert t._matrix().screened and not c._matrix().screened


def test_non_admissible_reported():
    c = BifilteredComplex([Generator("x", 0, 0), Generator("y", 0, 0)], [], 0)
    report = ku.validate(c)
    assert not report.ok
    assert any("non-admissible" in v for v in report.violations)


@pytest.mark.parametrize("name,c", corpus(), ids=[n for n, _ in corpus()])
def test_corpus_validates_and_d_squared_oracle(name, c):
    assert ku.validate(c).ok
    assert brute_d_squared_even(c)


def test_entry_grading_identity_on_corpus():
    for _, c in corpus():
        for e in c.differential:
            src, tgt = c.generator(e.source), c.generator(e.target)
            assert tgt.maslov - src.maslov + 1 - 2 * e.upower == 0
            assert src.alexander - tgt.alexander + e.upower >= 0


# -- grading slices


def test_trefoil_slice():
    pts = ku.grading_slice(trefoil_by_hand(), 0)
    assert [(p.generator, p.i, p.j) for p in pts] == [("a", 0, 1), ("c", 1, 0)]


def test_unknot_slices():
    u = ku.unknot_complex()
    assert [(p.generator, p.i, p.j) for p in ku.grading_slice(u, 0)] == [("u", 0, 0)]
    assert ku.grading_slice(u, 1) == []


def test_slice_cardinality_and_point_identity():
    for _, c in corpus():
        for d in (-1, 0, 1, 4):
            pts = ku.grading_slice(c, d)
            eligible = [g for g in c.generators if g.maslov % 2 == d % 2]
            assert len(pts) == len(eligible)
            for p in pts:
                g = c.generator(p.generator)
                assert p.j - p.i == g.alexander
                assert g.maslov + 2 * p.i == d


# -- homology


def test_verify_homology_unknot():
    u = ku.unknot_complex()
    assert enumerated_homology_dim(u, 0) == 1
    assert ku.validate(u).ok


def test_verify_homology_trefoil():
    c = trefoil_by_hand()
    assert enumerated_homology_dim(c, 0) == 1
    assert enumerated_homology_dim(c, 1) == 0
    assert ku.validate(c).ok


def test_verify_homology_rank_two():
    c = BifilteredComplex([Generator("x", 0, 0), Generator("y", 0, 0)], [], 0)
    assert enumerated_homology_dim(c, 0) == 2
    assert not ku.validate(c).ok
    msg = "non-admissible: homology has dimension 2 != 1 in grading 0"
    assert ku.validate(c).violations == (msg,)
    with pytest.raises(ku.NonAdmissibleError) as exc:
        require_admissible(c)
    assert str(exc.value) == msg


def test_homology_against_enumeration_oracle():
    # the rank require_admissible computes, at ambient_d and at the grading
    # above it, read off validate's report
    small = [c for _, c in corpus() if len(c.generators) <= 9]
    for c in small:
        for d in (c.ambient_d, c.ambient_d + 1):
            dim = enumerated_homology_dim(c, d)
            shifted = BifilteredComplex(c.generators, c.differential, d)
            assert ku.validate(shifted).violations == (() if dim == 1 else (
                "non-admissible: homology has dimension %d != 1 in grading %d"
                % (dim, d),))


def test_box_is_acyclic_but_valid():
    box = ku.box_complex()
    require_valid(box)
    assert enumerated_homology_dim(box, 0) == 0
    assert enumerated_homology_dim(box, 1) == 0
    assert ku.validate(box).violations == (
        "non-admissible: homology has dimension 0 != 1 in grading 0",)


def _record_cases():
    """The corpus, 200 random admissible complexes, and refused complexes
    of homology dimension 0 and 2 in grading ambient_d."""
    rng = random.Random(25)
    tref = ku.torus_knot_complex(2, 3)
    other = renamed(tref, ["p", "q", "r"])
    return ([c for _, c in corpus()]
            + [random_admissible_complex(rng, "r%d" % k) for k in range(200)]
            + [ku.box_complex(), BifilteredComplex([], []),
               ku.direct_sum(ku.box_complex(maslov=1), ku.box_complex("b")),
               BifilteredComplex(tref.generators + (Generator("e", 0, 0),),
                                 tref.differential),
               ku.direct_sum(tref, other),
               BifilteredComplex(tref.generators, tref.differential, 2)])


def test_slice_record_is_integers_with_rank_nullity_dimension():
    # the record holds the grading slice as names and i, j lists; its
    # dimension is rank-nullity's, which a full kernel walk, enumeration on
    # small slices, and the refusal message agree on; its class cycle is
    # the first kernel vector outside the boundary span
    dims, small = [], 0
    for c in _record_cases():
        d, p = c.ambient_d, c.ambient_d % 2
        cols = c._matrix().cols
        bound = BitEchelon(cols[1 - p])
        kernel = list(kernel_basis(cols[p]))
        dim = len(kernel) - bound.rank
        dims.append(dim)
        pts = ku.grading_slice(c, d)
        if len(pts) <= 10 and len(ku.grading_slice(c, d + 1)) <= 10:
            small += 1
            assert enumerated_homology_dim(c, d) == dim
        if dim != 1:
            msg = ("non-admissible: homology has dimension %d != 1 in "
                   "grading %d" % (dim, d))
            assert ku.validate(c).violations == reference_violations(c) == (
                msg,)
            with pytest.raises(ku.NonAdmissibleError) as exc:
                require_admissible(c)
            assert str(exc.value) == msg
            continue
        s = require_admissible(c)
        assert list(zip(s.names, s.i, s.j)) == [tuple(q) for q in pts]
        assert all(type(x) is int for x in s.i + s.j)
        assert s.cycle == next(z for z in kernel if bound.reduce(z))
    assert dims.count(0) == 3 and dims.count(2) == 2
    assert dims.count(1) == len(dims) - 5 and small >= 100


# -- tensor


def test_tensor_unknot_is_unit():
    t = trefoil_by_hand()
    assert positionally_equal(ku.tensor(ku.unknot_complex(), t), t)
    assert positionally_equal(ku.tensor(t, ku.unknot_complex()), t)


def test_tensor_trefoil_trefoil():
    t = trefoil_by_hand()
    tt = ku.tensor(t, t)
    assert len(tt.generators) == 9
    assert max(g.alexander for g in tt.generators) == 2
    assert ku.validate(tt).ok


def test_tensor_matches_reference():
    knots = [c for _, c in corpus()]
    t = ku.torus_knot_complex(2, 3)
    pairs = [(a, b, naive_tensor(a, b)) for a in knots for b in knots]
    pairs.append((ku.tensor(t, t), t, naive_tensor(naive_tensor(t, t), t)))
    for a, b, ref in pairs:
        c = ku.tensor(a, b)
        assert c.generators == ref.generators
        assert c.differential == ref.differential
        assert (c.ambient_d, c.label) == (ref.ambient_d, ref.label)


def test_broken_tensor_is_caught(monkeypatch):
    # a tensor that raises the U-power of its first entry by one: validate
    # names exactly that entry, and the reference comparison fails
    real = ku.tensor

    def raised(c1, c2):
        c = real(c1, c2)
        if not c._entries:
            return c
        (s, t, k), *rest = c._entries
        return BifilteredComplex._of(c._names, c._alex, c._maslov,
                                     [(s, t, k + 1)] + rest, c.ambient_d,
                                     c.label, c._dup)

    monkeypatch.setattr(ku, "tensor", raised)
    t = ku.torus_knot_complex(2, 3)
    assert ku.validate(ku.tensor(t, t)).violations == (
        "Maslov constraint violated by (x0*x1 -> x0*x0, U^2): M(x0*x0)=0, "
        "expected 2",)
    with pytest.raises(AssertionError):
        test_tensor_matches_reference()


class CountingList(list):
    """A list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_validate_walks_the_entries_once():
    # one walk indexes, screens and feeds the d^2 check; the rows of the
    # index hold the entries themselves
    t = ku.torus_knot_complex(2, 3)
    c = reduce(ku.tensor, [t, t, ku.torus_knot_complex(2, -5)])
    c._entries = entries = CountingList(c._entries)
    assert ku.validate(c).ok
    assert entries.walks == 1
    ids = {id(e) for e in entries}
    rows = c._matrix().out
    assert sum(map(len, rows)) == len(entries)
    assert all(id(e) in ids for row in rows for e in row)


def test_tensor_associative_up_to_renaming():
    a = ku.torus_knot_complex(2, 3)
    b = ku.figure_eight_complex()
    c = ku.torus_knot_complex(2, -3)
    assert positionally_equal(ku.tensor(ku.tensor(a, b), c),
                              ku.tensor(a, ku.tensor(b, c)))


def test_tensor_rejects_invalid():
    broken = BifilteredComplex(
        [Generator("a", 0, 0), Generator("b", 1, 0)],
        [DiffEntry("b", "a", 1)], 0)
    with pytest.raises(ku.InvalidComplexError):
        ku.tensor(broken, ku.unknot_complex())


def test_tensor_name_clash():
    # both copies of the trefoil are valid, but "a" * "b*c" and "a*b" * "c"
    # would both be "a*b*c"
    t = ku.torus_knot_complex(2, 3)
    a, b = renamed(t, ["a", "a*b", "q"]), renamed(t, ["b*c", "c", "r"])
    assert ku.validate(a).ok and ku.validate(b).ok
    with pytest.raises(ValueError, match=r"^tensor name clash: \['a\*b\*c'\]$"):
        ku.tensor(a, b)
    assert ku.validate(ku.tensor(b, a)).ok


# every name over {a, b, *} of length 1 or 2: short names clash often
NAMES_OVER_AB_STAR = st.lists(
    st.sampled_from([x + y for x in "ab*" for y in ["", "a", "b", "*"]]),
    min_size=1, max_size=6, unique=True)


@given(NAMES_OVER_AB_STAR, NAMES_OVER_AB_STAR)
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@example(["a", "a*b"], ["b*c", "c"])
@example(["a*", "a"], ["b", "*b"])
def test_tensor_clash_shortcut_misses_no_clash(left, right):
    # tensor skips its set of product names when no name of the right
    # factor holds "*"; on names over {a, b, *} it refuses exactly when
    # the full set of products finds a repeat
    def gens(names):
        return BifilteredComplex([Generator(n, 0, 0) for n in names], [])

    products = ["%s*%s" % (a, b) for a in left for b in right]
    clash = len(set(products)) < len(products)
    try:
        ku.tensor(gens(left), gens(right))
    except ValueError as exc:
        assert clash and str(exc) == "tensor name clash: %s" % sorted(
            {p for p in products if products.count(p) > 1})
    else:
        assert not clash


def test_tensor_ambient_d_adds():
    u = ku.unknot_complex()
    shifted = BifilteredComplex([Generator("v", 0, 2)], [], 2)
    assert ku.tensor(shifted, shifted).ambient_d == 4
    assert ku.tensor(u, shifted).ambient_d == 2


def test_positions_are_the_identity(monkeypatch):
    # the builders, and checking, sweeping and writing a chain, make no
    # Generator or DiffEntry: only the views do, on first use
    def refuse(*args):
        raise AssertionError("built a named record")

    monkeypatch.setattr(knotupsilon.complexes, "Generator", refuse)
    monkeypatch.setattr(knotupsilon.complexes, "DiffEntry", refuse)
    chain = [ku.torus_knot_complex(2, 3), ku.figure_eight_complex(),
             ku.staircase([1, 2, 2, 1]), ku.unknot_complex()]
    c = ku.direct_sum(ku.dual(reduce(ku.tensor, chain)),
                      ku.box_complex("q", 0, 0))
    assert ku.validate(c).ok
    f = ku.upsilon(c)
    assert ku.tau(c) == -4 and all(j.passed for j in ku.jump_report(c, f))
    assert ku.complex_from_json(ku.complex_to_json(c)).label == c.label
    for view in ("generators", "differential"):
        with pytest.raises(AssertionError, match="named record"):
            getattr(c, view)
    monkeypatch.undo()
    mat = c._matrix()
    assert type(mat.out) is list and type(mat.pos) is list and mat.screened
    assert c.generators is c.generators
    assert c.differential is c.differential
    assert c.generator("qz") == Generator("qz", 0, 0)


# -- dual


def test_dual_unknot_self():
    assert positionally_equal(ku.dual(ku.unknot_complex()), ku.unknot_complex())


def test_dual_trefoil_gradings():
    d = ku.dual(trefoil_by_hand())
    assert [(g.name, g.alexander, g.maslov) for g in d.generators] == [
        ("a", -1, 0), ("b", 0, 1), ("c", 1, 2)]
    assert {(e.source, e.target, e.upower) for e in d.differential} == {
        ("a", "b", 1), ("c", "b", 0)}
    assert ku.validate(d).ok


def test_dual_involution():
    for _, c in corpus():
        assert positionally_equal(ku.dual(ku.dual(c)), c, names=True)


def test_dual_swaps_slices():
    for _, c in corpus():
        for d in (0, 1):
            assert (len(ku.grading_slice(ku.dual(c), -d))
                    == len(ku.grading_slice(c, d)))


# -- direct sum


def test_direct_sum_name_clash():
    with pytest.raises(ValueError):
        ku.direct_sum(ku.unknot_complex(), ku.unknot_complex())


def test_direct_sum_resolves_unknown_names_across_sides():
    # an entry of one side naming a generator of the other resolves to it
    left = BifilteredComplex([Generator("b", 0, -1)], [DiffEntry("b", "a", 1)])
    right = BifilteredComplex([Generator("z", 5, 5), Generator("a", 1, 0)], [])
    c = ku.direct_sum(left, right)
    assert c.generators == left.generators + right.generators
    assert c.differential == (DiffEntry("b", "a", 1),)
    assert ku.validate(c).violations == (
        "non-admissible: homology has dimension 0 != 1 in grading 0",)


def test_direct_sum_with_box_keeps_homology():
    t = ku.torus_knot_complex(2, 3)
    c = ku.direct_sum(t, ku.box_complex(prefix="q_"))
    assert ku.validate(c).ok
    assert enumerated_homology_dim(c, 0) == 1


# -- JSON interchange


def test_json_round_trip():
    for _, c in corpus():
        text = ku.complex_to_json(c)
        back = ku.complex_from_json(text)
        assert positionally_equal(back, c, names=True)
        assert back.label == c.label
        assert ku.complex_to_json(back) == text


def test_json_rejects_unknown_keys():
    obj = ku.complex_to_json_dict(ku.unknot_complex())
    obj["extra"] = 1
    with pytest.raises(ku.FormatError):
        ku.complex_from_json_dict(obj)


def test_json_rejects_unknown_generator_keys():
    obj = ku.complex_to_json_dict(ku.unknot_complex())
    obj["generators"][0]["color"] = "blue"
    with pytest.raises(ku.FormatError):
        ku.complex_from_json_dict(obj)


def test_json_rejects_missing_keys():
    with pytest.raises(ku.FormatError):
        ku.complex_from_json_dict({"generators": [], "differential": []})


def test_json_rejects_bad_types():
    def ambient(obj):
        obj["ambient_d"] = "zero"

    def name(obj):
        obj["generators"][0]["name"] = 5

    def endpoint(obj):
        obj["differential"][1]["to"] = ["x2"]

    def upower(obj):
        obj["differential"][0]["upower"] = 1.0

    for mutate, message in (
            (ambient, "ambient_d must be an integer"),
            (name, "generator name must be a string"),
            (endpoint, "differential endpoints must be strings"),
            (upower, "upower must be an integer")):
        obj = ku.complex_to_json_dict(ku.torus_knot_complex(2, 3))
        mutate(obj)
        with pytest.raises(ku.FormatError, match="^%s$" % message):
            ku.complex_from_json_dict(obj)


def test_json_rejects_malformed_text():
    for text in (
            "{not json",
            # past the interpreter's digit limit and its recursion limit
            '{"ambient_d": %s, "generators": [], "differential": []}'
            % ("1" * 5000),
            "[" * 100000 + "]" * 100000):
        with pytest.raises(ku.FormatError, match="^invalid JSON: "):
            ku.complex_from_json(text)


@pytest.mark.parametrize("key", ["generators", "differential"])
@pytest.mark.parametrize("value", [5, None, "ab", {"name": "a"}])
def test_json_rejects_field_that_is_not_a_list(key, value):
    obj = ku.complex_to_json_dict(ku.unknot_complex())
    obj[key] = value
    with pytest.raises(ku.FormatError, match="%r must be a list" % key):
        ku.complex_from_json_dict(obj)


SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.floats(), st.text(max_size=4))
JSON_VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6)
NAMES = st.sampled_from(["a", "b", "c"])
GRADINGS = st.integers(-2, 2)


def json_objects(fields):
    """Objects with the given fields: every field present and well typed,
    or each field present or absent and filled with anything, plus maybe
    an extra key."""
    anything = {k: st.one_of(v, JSON_VALUES) for k, v in fields.items()}
    return st.one_of(
        st.fixed_dictionaries(fields),
        st.fixed_dictionaries({}, optional={**anything, "extra": JSON_VALUES}),
        JSON_VALUES)


GENERATOR_OBJECTS = json_objects(
    {"name": NAMES, "alexander": GRADINGS, "maslov": GRADINGS})
ENTRY_OBJECTS = json_objects(
    {"from": NAMES, "to": NAMES, "upower": st.integers(0, 2)})
COMPLEX_OBJECTS = json_objects({
    "label": st.one_of(st.none(), st.text(max_size=3)),
    "ambient_d": GRADINGS,
    "generators": st.lists(GENERATOR_OBJECTS, max_size=3),
    "differential": st.lists(ENTRY_OBJECTS, max_size=3)})


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(obj=COMPLEX_OBJECTS)
def test_json_from_dict_raises_only_format_error(obj):
    try:
        c = ku.complex_from_json_dict(obj)
    except ku.FormatError:
        return
    text = ku.complex_to_json(c)
    assert ku.complex_to_json(ku.complex_from_json(text)) == text
