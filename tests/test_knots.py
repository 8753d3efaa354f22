"""Constructors: staircases, torus knots, figure-eight, polynomials, records."""

import pytest

import knotupsilon as ku
from knotupsilon import LaurentPolyZ, PLFunction
from fractions import Fraction as F

from helpers import positionally_equal


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
        assert c.homology_dimension(0) == 1


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
    assert c.homology_dimension(0) == 1


def test_torus_rejects_non_coprime():
    with pytest.raises(ValueError):
        ku.torus_knot_complex(4, 2)
    with pytest.raises(ValueError):
        ku.torus_knot_alexander(6, 9)


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


# -- Alexander polynomials


def test_trefoil_polynomial():
    assert ku.torus_knot_alexander(2, 3) == LaurentPolyZ({1: 1, 0: -1, -1: 1})


def test_t25_polynomial():
    assert ku.torus_knot_alexander(2, 5) == LaurentPolyZ(
        {2: 1, 1: -1, 0: 1, -1: -1, -2: 1})


def test_mirror_polynomial_invariance():
    assert ku.torus_knot_alexander(2, -3) == ku.torus_knot_alexander(2, 3)


def test_polynomial_division_oracle():
    # multiply the quotient back by the divisor and compare products
    for p, q in [(2, 3), (2, 5), (3, 4), (3, 7), (4, 5)]:
        delta = ku.torus_knot_alexander(p, q)
        g = (p - 1) * (q - 1) // 2
        lhs = delta.shifted(g) * LaurentPolyZ({p: 1, 0: -1}) * LaurentPolyZ({q: 1, 0: -1})
        rhs = LaurentPolyZ({p * q: 1, 0: -1}) * LaurentPolyZ({1: 1, 0: -1})
        assert lhs == rhs


def test_polynomial_span_and_symmetry():
    for p, q in [(2, 3), (2, 7), (3, 4), (3, 7), (5, 7)]:
        delta = ku.torus_knot_alexander(p, q)
        assert delta.is_symmetric()
        assert delta.max_degree - delta.min_degree == (p - 1) * (q - 1)


def test_fibered_genus():
    assert ku.fibered_genus(ku.torus_knot_alexander(2, 3)) == 1
    assert ku.fibered_genus(LaurentPolyZ.one()) == 0
    with pytest.raises(ValueError):
        ku.fibered_genus(LaurentPolyZ())


def test_cable_of_unknot_is_pattern():
    assert ku.cable_alexander(LaurentPolyZ.one(), 2, 3) == \
        ku.torus_knot_alexander(2, 3)


def test_cable_of_negative_trefoil_n8():
    delta = ku.cable_alexander(ku.torus_knot_alexander(2, -3), 2, 17)
    assert ku.fibered_genus(delta) == 10


@pytest.mark.parametrize("n", range(8, 13))
def test_cable_genus_family(n):
    delta = ku.cable_alexander(ku.torus_knot_alexander(2, -3), 2, 2 * n + 1)
    assert ku.fibered_genus(delta) == n + 2


def test_cable_rejects_asymmetric_companion():
    with pytest.raises(ValueError):
        ku.cable_alexander(LaurentPolyZ({1: 1}), 2, 3)


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
        assert ku.check_symmetry(f)
        # continuity across the breakpoint is built into the representation
        assert f.breakpoints[1] == F(2, 3)


def test_chen_rejects_small_n():
    with pytest.raises(ValueError):
        ku.chen_cable_upsilon(7)


# -- knot records


def test_record_genus_consistency():
    with pytest.raises(ValueError):
        ku.KnotRecord("bad", complex=ku.torus_knot_complex(2, 3), genus=5)


def test_record_upsilon_from_complex():
    rec = ku.KnotRecord("trefoil", complex=ku.torus_knot_complex(2, 3), genus=1)
    assert rec.upsilon_function() == PLFunction([0, 1, 2], [0, -1, 0])


def test_record_upsilon_override_wins():
    rec = ku.KnotRecord("flat", upsilon_override=PLFunction.zero())
    assert rec.upsilon_function().is_zero()


def test_record_missing_upsilon():
    rec = ku.KnotRecord("empty")
    assert not rec.has_upsilon()
    with pytest.raises(ku.MissingDataError):
        rec.upsilon_function()


def test_slice_cable_record():
    rec = ku.slice_cable_record(3)
    assert rec.genus == 6
    assert rec.fibered and rec.monodromy_right_veering
    assert rec.upsilon_function().is_zero()


# -- builtins


def test_builtin_fixed_names():
    for name in ("unknot", "trefoil", "trefoil-left", "figure8"):
        rec = ku.builtin_record(name)
        assert rec.name == name
        assert rec.complex is not None
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


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        ku.builtin_record("granny")
    with pytest.raises(ValueError):
        ku.builtin_record("torus:2")
    with pytest.raises(ValueError):
        ku.builtin_record("torus:2,x")
