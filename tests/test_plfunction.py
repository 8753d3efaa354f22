"""Piecewise-linear functions: arithmetic against the pointwise oracle,
bounded rationals, and the PL JSON reader under fuzzing."""

import operator
import sys
from fractions import Fraction as F
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from knotupsilon import PLFunction, format_rational, parse_rational
from knotupsilon.errors import FormatError

from helpers import pl_pointwise

# breakpoint candidates on a coarse grid, so two random functions often
# share some breakpoints and ties between the two lists get exercised
GRID = sorted({F(k, d) for d in (2, 3, 4, 5, 7) for k in range(1, 2 * d)})


@st.composite
def pl_functions(draw):
    cuts = sorted(draw(st.sets(st.sampled_from(GRID), max_size=6)))
    bps = [F(0)] + cuts + [F(2)]
    # equal neighbouring slopes are allowed, so inputs get merged too
    slopes = draw(st.lists(st.integers(-4, 4), min_size=len(bps) - 1,
                           max_size=len(bps) - 1))
    v = draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
    values = [v]
    for a, b, s in zip(bps, bps[1:], slopes):
        v += s * (b - a)
        values.append(v)
    return PLFunction(bps, values)


def data(f):
    return f.breakpoints, f.values, f.slopes


def reflected_oracle(f):
    bps = [2 - b for b in reversed(f.breakpoints)]
    return PLFunction(bps, [f(2 - t) for t in bps])


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(f=pl_functions(), g=pl_functions(), n=st.integers(-3, 3))
def test_arithmetic_matches_pointwise_oracle(f, g, n):
    zero = PLFunction.zero()
    cases = [
        (f + g, pl_pointwise(f, g, operator.add)),
        (f - g, pl_pointwise(f, g, operator.sub)),
        (f - f, zero),
        (-f, pl_pointwise(f, zero, lambda a, _: -a)),
        (n * f, pl_pointwise(f, zero, lambda a, _: n * a)),
        (f.reflected(), reflected_oracle(f)),
    ]
    for got, want in cases:
        assert data(got) == data(want)
        assert all(type(x) is F for x in got.breakpoints + got.values)
        assert all(type(s) is int for s in got.slopes)
    # canonical form makes equality of data equality of functions
    assert (f != g) == (not (f - g).is_zero())


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(f=pl_functions(), g=pl_functions())
def test_sums_agree_pointwise_and_are_canonical(f, g):
    # every breakpoint and every midpoint of both functions
    ts = set(f.breakpoints) | set(g.breakpoints) | {
        (a + b) / 2 for h in (f, g)
        for a, b in zip(h.breakpoints, h.breakpoints[1:])}
    for h, op in ((f + g, operator.add), (f - g, operator.sub)):
        assert all(h(t) == op(f(t), g(t)) for t in ts)
        bps, vals, slopes = data(h)
        assert len(bps) == len(vals) == len(slopes) + 1
        assert all((v1 - v0) / (b1 - b0) == s for b0, b1, v0, v1, s
                   in zip(bps, bps[1:], vals, vals[1:], slopes))
        assert all(s0 != s1 for s0, s1 in zip(slopes, slopes[1:]))
    assert (f - g) + g == f


def test_operators_refuse_other_types():
    f = PLFunction([0, 1, 2], [0, -1, 0])
    assert (f == 1) is False
    for op in (lambda: f + 1, lambda: f - 1, lambda: 0.5 * f):
        with pytest.raises(TypeError):
            op()


def test_slope_intervals():
    f = PLFunction([0, F(1, 2), 1, F(3, 2), 2], [0, -1, 0, -1, 0])
    assert f.slope_intervals(-2) == ((0, F(1, 2)), (1, F(3, 2)))
    assert f.slope_intervals(2) == ((F(1, 2), 1), (F(3, 2), 2))
    assert f.slope_intervals(0) == ()


def test_merge_of_collinear_pieces():
    # the kinks of f and g at 1 cancel, so [1/2, 1] and [1, 2] merge
    f = PLFunction([0, 1, 2], [0, -1, 0])
    g = PLFunction([0, F(1, 2), 1, 2], [0, 1, F(3, 2), F(1, 2)])
    assert data(f + g) == ((0, F(1, 2), 2), (0, F(1, 2), F(1, 2)), (1, 0))
    assert data(f - f) == data(PLFunction.zero())
    assert data(0 * f) == data(PLFunction.zero())


def test_domain_sampling_and_repr():
    f = PLFunction([0, 1, 2], [0, -1, 0])
    for t in ("-1/2", "3"):
        with pytest.raises(ValueError,
                           match=r"^argument %s outside \[0, 2\]$" % t):
            f(F(t))
    with pytest.raises(ValueError, match="^step must be positive$"):
        f.sample_rows(0)
    assert repr(f) == "<PLFunction slope -1 on [0, 1], slope 1 on [1, 2]>"


# -- bounded rationals


@pytest.mark.parametrize("text", [
    "1e20000000", "-3.5E-20000000", "1_0e2_0000000", "1e4300", "1e-4300",
    "0." + "1" * 4300])
def test_parse_rational_refuses_oversized_quickly(text):
    start = perf_counter()
    with pytest.raises(FormatError, match="more than %d digits"
                       % sys.get_int_max_str_digits()):
        parse_rational(text)
    assert perf_counter() - start < 1


def test_parse_rational_keeps_values_within_limit():
    limit = sys.get_int_max_str_digits()
    assert parse_rational("1e300") == 10 ** 300
    assert parse_rational(" -2.5e-3 ") == F(-1, 400)
    assert parse_rational("0e99999999") == 0
    assert parse_rational("1e%d" % (limit - 1)) == 10 ** (limit - 1)
    # 25e-(limit+1) reduces to 1/(4 * 10**(limit-1)), limit digits
    assert parse_rational("25e-%d" % (limit + 1)) == F(1, 4 * 10 ** (limit - 1))
    assert parse_rational("3/7") == F(3, 7)
    with pytest.raises(FormatError, match="invalid rational"):
        parse_rational("1/2e5")
    assert parse_rational(10 ** (limit - 1)) == 10 ** (limit - 1)
    with pytest.raises(FormatError, match="integer has more than %d digits"
                       % limit):
        parse_rational(10 ** limit)


def test_format_rational_inputs():
    # rationals and ints are formatted as they are; other inputs are
    # converted first
    assert format_rational(F(-6, 4)) == "-3/2"
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(-7) == "-7"
    assert format_rational(True) == "1"
    assert format_rational(0.5) == "1/2"
    assert format_rational("3/6") == "1/2"
    assert format_rational(0.1) == "3602879701896397/36028797018963968"
    # each written out: reduced "p/q" with q >= 1, plain "p" for integers
    cases = [(0, "0"), (12, "12"), (-10 ** 20, "-100000000000000000000"),
             (False, "0"), (F(0), "0"), (F(-1, 3), "-1/3"),
             (F(10, -4), "-5/2"), (F(-9, 3), "-3"), (F(97, 89), "97/89"),
             (-0.125, "-1/8"), (2.0, "2"), (-0.5, "-1/2"),
             ("1e-3", "1/1000"), ("-4/2", "-2"), ("2.5", "5/2")]
    assert [format_rational(x) for x, _ in cases] == [s for _, s in cases]


# -- the PL JSON reader

RATIONAL_TEXT = st.sampled_from(["0", "2", "1", "-1", "1/2", "2/3", "0.5",
                                 "1e0", "3/0", "x", ""])
LONG_EXPONENTS = st.sampled_from(["1e20000000", "-1e-20000000", "1e4301",
                                  "2.5e-4400", "0e99999999", "1E+300"])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10, 10),
                    st.floats(), st.text(max_size=6), RATIONAL_TEXT,
                    LONG_EXPONENTS)
JSON_VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8)
FIELDS = st.one_of(
    st.sampled_from([["0", "2"], ["0", "1", "2"], [0, 0], ["0", "-1", "0"],
                     [-1, 1], ["0", "1/2", "2"], [0, "1/2", "1/2"]]),
    st.lists(st.one_of(RATIONAL_TEXT, st.integers(-2, 2)), max_size=4),
    st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=2)), max_size=5),
    JSON_VALUES)
PL_OBJECTS = st.one_of(
    st.fixed_dictionaries({"breakpoints": FIELDS, "values": FIELDS},
                          optional={"slopes": FIELDS}),
    st.fixed_dictionaries({}, optional={"breakpoints": FIELDS,
                                        "values": FIELDS,
                                        "slopes": FIELDS,
                                        "extra": JSON_VALUES}),
    JSON_VALUES)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(obj=PL_OBJECTS)
def test_from_json_dict_raises_only_format_error(obj):
    try:
        f = PLFunction.from_json_dict(obj)
    except FormatError:
        return
    assert PLFunction.from_json_dict(f.to_json_dict()) == f


@pytest.mark.parametrize("key", ["breakpoints", "values", "slopes"])
def test_from_json_dict_refuses_field_that_is_not_a_list(key):
    obj = {"breakpoints": ["0", "2"], "values": ["0", "0"], "slopes": [0]}
    obj[key] = 5
    with pytest.raises(FormatError, match="%r must be a list" % key):
        PLFunction.from_json_dict(obj)


@pytest.mark.parametrize("declared, ok", [
    ([-1, -1], True), ([-1.0, -1.0], True), (["-1", "-1"], False),
    ([-1], False), ([True, -1], False), ([-1, -2], False)])
def test_from_json_dict_checks_declared_slopes(declared, ok):
    obj = {"breakpoints": ["0", "1", "2"], "values": ["0", "-1", "-2"],
           "slopes": declared}
    if ok:
        assert PLFunction.from_json_dict(obj) == PLFunction([0, 2], [0, -2])
    else:
        with pytest.raises(FormatError) as exc:
            PLFunction.from_json_dict(obj)
        assert str(exc.value) == "declared slopes disagree with values"
