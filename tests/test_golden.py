"""The golden corpus: every pinned line recomputes byte for byte, and every
witness the sweep keeps on those complexes re-proves its segment.

The file is written only by golden.py; see its docstring.
"""

from fractions import Fraction as F

import pytest

import knotupsilon as ku
from golden import GOLDEN, complex_cases, golden_lines
from helpers import (check_segment_certificate, filtration_value,
                     swept_segments)


def _differing(got, want):
    """Up to five (line number, pinned line's head) where got and want
    differ, and whether their lengths do."""
    diff = [(k + 1, w[:120]) for k, (g, w) in enumerate(zip(got, want))
            if g != w]
    return diff[:5], len(got) != len(want)


def test_golden_corpus_is_unchanged(tmp_path):
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = golden_lines(tmp_path)
    assert _differing(got, want) == ([], False)


@pytest.fixture(scope="module")
def admissible():
    return [(case, c) for case, c in complex_cases() if ku.validate(c).ok]


def test_golden_witnesses_prove_their_segments(admissible):
    # 280 pinned complexes plus the broken cases that stayed valid
    assert len(admissible) > 280
    for case, c in admissible:
        for ends, p, cycle, cocycle in swept_segments(c):
            assert check_segment_certificate(c, ends, p, cycle, cocycle), case


def test_golden_nu_certificates(admissible):
    for case, c in admissible:
        f = ku.upsilon(c)
        for t in (F(0), F(1, 3), F(1), F(5, 3), F(2)):
            cert = ku.nu_at(c, t)
            assert cert.nu == -f(t) / 2, case
            assert cert.realizing_points, case
            assert all(filtration_value(t, p) == cert.nu
                       for p in cert.realizing_points), case
            assert all(filtration_value(t, p) <= cert.nu
                       for p in cert.cycle), case
            assert check_segment_certificate(
                c, (t, t), cert.realizing_points[0], cert.cycle,
                cert.cocycle), case


def test_views_rebuild_the_same_complex():
    # the two routes to a complex: positions built by the library, and the
    # public constructor resolving the names of its views back
    for case, c in complex_cases():
        again = ku.BifilteredComplex(c.generators, c.differential,
                                     c.ambient_d, c.label)
        violations = ku.validate(c).violations
        assert ku.validate(again).violations == violations, case
        assert ku.complex_to_json(again) == ku.complex_to_json(c), case
        if not any("unknown generator" in v for v in violations):
            assert again._matrix().cols == c._matrix().cols, case
