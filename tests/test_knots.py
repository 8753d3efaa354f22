"""Constructors: staircases, torus knots, figure-eight, records, and the
Alexander-polynomial oracle the torus staircases are checked against."""

from math import gcd

import pytest

import knotupsilon as ku
import knotupsilon.complexes
from knotupsilon import PLFunction
from fractions import Fraction as F

from helpers import (cable_alexander, check_symmetry, enumerated_homology_dim,
                     poly_mul, positionally_equal, slice_cable_record,
                     top_degree, torus_alexander)


# -- staircases


def test_staircase_trefoil_model():
    c = ku.staircase([1, 1])
    assert [(g.alexander, g.maslov) for g in c.generators] == [
        (1, 0), (0, -1), (-1, -2)]
    assert {(e.source, e.target, e.upower) for e in c.differential} == {
        ("x1", "x0", 1), ("x1", "x2", 0)}
    assert ku.validate(c).ok


def test_staircase_t25():
    c = ku.staircase([1, 1, 1, 1])
    assert len(c.generators) == 5
    assert max(g.alexander for g in c.generators) == 2
    assert ku.validate(c).ok
    assert ku.tau(c) == 2


def test_staircase_top_grading_is_horizontal_sum():
    for steps in ([1, 1], [2, 1, 1, 2], [1, 2, 2, 1], [3, 1], [1, 3, 2, 2]):
        c = ku.staircase(steps)
        assert max(g.alexander for g in c.generators) == sum(steps[0::2])
        assert ku.validate(c).ok
        assert enumerated_homology_dim(c, 0) == 1


@pytest.mark.parametrize("steps", [[], [1], [1, 1, 1], [0, 1], [1, -2]])
def test_staircase_rejects_bad_steps(steps):
    with pytest.raises(ValueError):
        ku.staircase(steps)


# -- torus knots


def test_torus_23_is_trefoil_staircase():
    assert positionally_equal(ku.torus_knot_complex(2, 3), ku.staircase([1, 1]))


def test_torus_27():
    c = ku.torus_knot_complex(2, 7)
    assert max(g.alexander for g in c.generators) == 3
    assert ku.tau(c) == 3


def test_torus_37_genus_six():
    c = ku.torus_knot_complex(3, 7)
    assert max(g.alexander for g in c.generators) == 6
    assert enumerated_homology_dim(c, 0) == 1
    assert ku.validate(c).ok


def test_torus_steps_are_alexander_exponent_gaps():
    # the semigroup staircase against the polynomial, computed by division
    pairs = [(p, q) for q in range(3, 24) for p in range(2, q)
             if gcd(p, q) == 1]
    for p, q in pairs + [(13, 29), (17, 31)]:
        delta = torus_alexander(p, q)
        exps = sorted(delta, reverse=True)
        assert [delta[e] for e in exps] == [
            (-1) ** k for k in range(len(exps))]
        ref = ku.staircase([a - b for a, b in zip(exps, exps[1:])])
        c = ku.torus_knot_complex(p, q)
        assert c.generators == ref.generators
        assert c.differential == ref.differential


def test_torus_rejects_non_coprime():
    with pytest.raises(ValueError):
        ku.torus_knot_complex(4, 2)


def test_torus_negative_is_mirror():
    pos = ku.torus_knot_complex(2, 5)
    neg = ku.torus_knot_complex(2, -5)
    assert positionally_equal(neg, ku.dual(pos))


# -- figure eight


def test_figure_eight_model():
    c = ku.figure_eight_complex()
    assert len(c.generators) == 5
    assert ku.validate(c).ok
    assert ku.upsilon(c).is_zero()
    assert ku.tau(c) == 0


def test_figure_eight_mirror_same_upsilon():
    c = ku.figure_eight_complex()
    assert ku.upsilon(ku.dual(c)) == ku.upsilon(c)


# -- the Alexander-polynomial oracle


def test_trefoil_polynomial():
    assert torus_alexander(2, 3) == {1: 1, 0: -1, -1: 1}


def test_t25_polynomial():
    assert torus_alexander(2, 5) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}


def test_mirror_polynomial_invariance():
    assert torus_alexander(2, -3) == torus_alexander(2, 3)


def test_polynomial_division_oracle():
    # multiply the quotient back by the divisor and compare products
    for p, q in [(2, 3), (2, 5), (3, 4), (3, 7), (4, 5)]:
        g = (p - 1) * (q - 1) // 2
        shifted = {e + g: c for e, c in torus_alexander(p, q).items()}
        lhs = poly_mul(poly_mul(shifted, {p: 1, 0: -1}), {q: 1, 0: -1})
        assert lhs == poly_mul({p * q: 1, 0: -1}, {1: 1, 0: -1})
    with pytest.raises(ValueError):
        torus_alexander(6, 9)


def test_polynomial_span_and_symmetry():
    for p, q in [(2, 3), (2, 7), (3, 4), (3, 7), (5, 7)]:
        delta = torus_alexander(p, q)
        assert all(delta.get(-e) == c for e, c in delta.items())
        assert max(delta) - min(delta) == (p - 1) * (q - 1)


def test_fibered_genus():
    assert top_degree(torus_alexander(2, 3)) == 1
    assert top_degree({0: 1}) == 0
    with pytest.raises(ValueError):
        top_degree({})


def test_cable_of_unknot_is_pattern():
    assert cable_alexander({0: 1}, 2, 3) == torus_alexander(2, 3)


def test_cable_of_negative_trefoil_n8():
    delta = cable_alexander(torus_alexander(2, -3), 2, 17)
    assert top_degree(delta) == 10


@pytest.mark.parametrize("n", range(8, 13))
def test_cable_genus_family(n):
    delta = cable_alexander(torus_alexander(2, -3), 2, 2 * n + 1)
    assert top_degree(delta) == n + 2


# -- closed-form cable upsilon


def test_chen_values_n8():
    f = ku.chen_cable_upsilon(8)
    assert f(F(2, 3)) == F(-14, 3)
    assert f(1) == -8
    assert f(0) == 0


def test_chen_slopes():
    for n in range(8, 13):
        f = ku.chen_cable_upsilon(n)
        assert f.slopes[:2] == (-(n - 1), -(n + 2))
        assert check_symmetry(f)
        # continuity across the breakpoint is built into the representation
        assert f.breakpoints[1] == F(2, 3)


def test_chen_rejects_small_n():
    with pytest.raises(ValueError):
        ku.chen_cable_upsilon(7)


# -- knot records


def test_record_genus_consistency():
    c = ku.torus_knot_complex(2, 3)
    with pytest.raises(ValueError):
        ku.KnotRecord("bad", complex=c, genus=5)
    with pytest.raises(ValueError, match="genus 5 disagrees with top "
                       "Alexander grading 1"):
        ku.KnotRecord("bad", c, 5)
    with pytest.raises(ValueError):
        ku.KnotRecord._make(["bad", c, 5, None, None, None])
    # the --genus override path: a changed genus is checked again
    rec = ku.KnotRecord("trefoil", complex=c)
    assert rec._replace(genus=1) == ku.KnotRecord("trefoil", c, 1)
    with pytest.raises(ValueError):
        rec._replace(genus=5)
    with pytest.raises(AttributeError):
        rec.genus = 5
    assert ku.KnotRecord("g", genus=5)._replace(genus=7).genus == 7


def test_records_build_no_generator_view(monkeypatch):
    # the genus checks read the gradings by position: a record, its
    # upsilon and its tau make no Generator or DiffEntry
    def refuse(*args):
        raise AssertionError("built a named record")

    monkeypatch.setattr(knotupsilon.complexes, "Generator", refuse)
    monkeypatch.setattr(knotupsilon.complexes, "DiffEntry", refuse)
    for name, genus in (("torus:5,7", 12), ("staircase:1,2,2,1", 3)):
        rec = ku.builtin_record(name)
        assert rec.upsilon_function().initial_slope == -genus
        assert rec.genus == rec.tau() == genus  # L-space knots: tau = g
        with pytest.raises(AssertionError, match="named record"):
            rec.complex.generators


def test_knot_record_value():
    rec = ku.KnotRecord("chen", None, 10, True, True, ku.chen_cable_upsilon(8))
    assert rec == ku.builtin_record("chen-cable:8")._replace(name="chen")
    assert hash(rec) == hash(ku.KnotRecord(*rec))
    assert ku.KnotRecord("x") == ("x", None, None, None, None, None)
    with pytest.raises(TypeError):
        ku.KnotRecord()
    with pytest.raises(TypeError):
        ku.KnotRecord("x", colour="red")


def test_knot_record_repr():
    assert (repr(ku.builtin_record("trefoil"))
            == "KnotRecord(name='trefoil', complex=<BifilteredComplex "
            "T(2,3): 3 generators, 2 entries, d=0>, genus=1, fibered=True, "
            "monodromy_right_veering=True, upsilon_override=None)")
    assert (repr(ku.KnotRecord("x"))
            == "KnotRecord(name='x', complex=None, genus=None, fibered=None, "
            "monodromy_right_veering=None, upsilon_override=None)")


def test_record_upsilon_from_complex():
    rec = ku.KnotRecord("trefoil", complex=ku.torus_knot_complex(2, 3), genus=1)
    assert rec.upsilon_function() == PLFunction([0, 1, 2], [0, -1, 0])


def test_record_upsilon_override_wins():
    rec = ku.KnotRecord("flat", upsilon_override=PLFunction.zero())
    assert rec.upsilon_function().is_zero()


def test_record_tau_follows_its_upsilon():
    # tau is minus Upsilon'(0) of the one upsilon the record gives: an
    # override wins over the complex for both, and a complex record keeps
    # engine.tau's ambient-grading refusal
    tref = ku.torus_knot_complex(2, 3)
    flat = ku.KnotRecord("x", complex=tref, upsilon_override=PLFunction.zero())
    assert flat.upsilon_function().initial_slope == 0 == flat.tau()
    assert ku.KnotRecord("x", complex=tref).tau() == 1
    shifted = ku.BifilteredComplex(tref.generators, tref.differential, 2)
    with pytest.raises(ku.NonAdmissibleError, match="ambient grading 0"):
        ku.KnotRecord("y", complex=shifted).tau()


def test_record_missing_upsilon():
    rec = ku.KnotRecord("empty")
    with pytest.raises(ku.MissingDataError):
        rec.upsilon_function()


def test_slice_cable_record():
    rec = slice_cable_record(3)
    assert rec.genus == 6
    assert rec.fibered and rec.monodromy_right_veering
    assert rec.upsilon_function().is_zero()


# -- builtins


def test_builtin_fixed_names():
    for name, label, genus in (("unknot", "unknot", 0),
                               ("trefoil", "T(2,3)", 1),
                               ("trefoil-left", "trefoil-left", 1),
                               ("figure8", "figure8", 1)):
        rec = ku.builtin_record(name)
        assert rec.name == name
        assert rec.complex is not None
        assert rec.complex.label == label and rec.genus == genus
        assert rec.fibered


def test_builtin_monodromy_assertions():
    assert ku.builtin_record("trefoil").monodromy_right_veering is True
    assert ku.builtin_record("trefoil-left").monodromy_right_veering is False
    assert ku.builtin_record("figure8").monodromy_right_veering is False
    assert ku.builtin_record("torus:2,-5").monodromy_right_veering is False
    assert ku.builtin_record("staircase:1,1").monodromy_right_veering is None


def test_builtin_parametric():
    rec = ku.builtin_record("torus:3,4")
    assert rec.genus == 3
    rec = ku.builtin_record("chen-cable:8")
    assert rec.genus == 10 and rec.complex is None
    assert rec.upsilon_function()(1) == -8
    rec = ku.builtin_record("staircase:1,2,2,1")
    assert rec.genus == 3


def test_builtin_torus_genus_is_the_closed_form():
    # the record reads its genus off the complex; (p - 1)(|q| - 1)/2 is
    # the oracle, for every coprime pair up to T(12,23) and the mirrors
    pairs = [(p, q) for q in range(3, 24) for p in range(2, min(q, 13))
             if gcd(p, q) == 1]
    assert len(pairs) > 100
    for p, q in pairs:
        for b in (q, -q):
            rec = ku.builtin_record("torus:%d,%d" % (p, b))
            assert rec.genus == (p - 1) * (q - 1) // 2, (p, b)


def test_builtin_unknown_name():
    with pytest.raises(KeyError, match="^\"unknown builtin name 'granny'\"$"):
        ku.builtin_record("granny")
    # the step limit reads p <= 1 as no steps: the builder refuses it
    for name in ("torus:-1000000,0", "torus:1,999999999999"):
        with pytest.raises(ValueError, match=r"^need p, \|q\| >= 2$"):
            ku.builtin_record(name)
    with pytest.raises(ValueError):
        ku.builtin_record("torus:2")
    with pytest.raises(ValueError):
        ku.builtin_record("torus:2,x")
