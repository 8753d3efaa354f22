"""Data model: validation, slices, tensor, dual, homology, JSON."""

import pytest

import knotupsilon as ku
from knotupsilon import BifilteredComplex, DiffEntry, Generator

from helpers import (brute_d_squared_even, corpus, enumerated_homology_dim,
                     positionally_equal)


def trefoil_by_hand():
    gens = [Generator("a", 1, 0), Generator("b", 0, -1), Generator("c", -1, -2)]
    diff = [DiffEntry("b", "a", 1), DiffEntry("b", "c", 0)]
    return BifilteredComplex(gens, diff, 0, "trefoil")


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
    assert u.homology_dimension(0) == 1
    assert ku.validate(u).ok


def test_verify_homology_trefoil():
    c = trefoil_by_hand()
    assert c.homology_dimension(0) == 1
    assert c.homology_dimension(1) == 0


def test_verify_homology_rank_two():
    c = BifilteredComplex([Generator("x", 0, 0), Generator("y", 0, 0)], [], 0)
    assert c.homology_dimension(0) == 2
    assert not ku.validate(c).ok
    with pytest.raises(ku.NonAdmissibleError):
        ku.require_admissible(c)


def test_homology_against_enumeration_oracle():
    small = [c for _, c in corpus() if len(c.generators) <= 9]
    for c in small:
        d = c.ambient_d
        assert c.homology_dimension(d) == enumerated_homology_dim(c, d)
        assert c.homology_dimension(d + 1) == enumerated_homology_dim(c, d + 1)


def test_box_is_acyclic_but_valid():
    box = ku.box_complex()
    ku.require_valid(box)
    assert box.homology_dimension(0) == 0
    assert box.homology_dimension(1) == 0
    assert not ku.validate(box).ok  # flagged non-admissible


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


def test_tensor_ambient_d_adds():
    u = ku.unknot_complex()
    shifted = BifilteredComplex([Generator("v", 0, 2)], [], 2)
    assert ku.tensor(shifted, shifted).ambient_d == 4
    assert ku.tensor(u, shifted).ambient_d == 2


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


def test_direct_sum_with_box_keeps_homology():
    t = ku.torus_knot_complex(2, 3)
    c = ku.direct_sum(t, ku.box_complex(prefix="q_"))
    assert ku.validate(c).ok
    assert c.homology_dimension(0) == 1


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
    obj = ku.complex_to_json_dict(ku.unknot_complex())
    obj["ambient_d"] = "zero"
    with pytest.raises(ku.FormatError):
        ku.complex_from_json_dict(obj)


def test_json_rejects_malformed_text():
    with pytest.raises(ku.FormatError):
        ku.complex_from_json("{not json")
