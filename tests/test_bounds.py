"""Alphabet-size lower bounds."""

import pytest

from paradd.bounds import (
    f1_of,
    minimal_alphabet_report,
    minimal_alphabet_size,
)
from paradd.core import (
    integer_base,
    minimal_form,
    negative_integer_base,
    negative_rational_base,
    negative_root_base,
    pisot_minus_base,
    pisot_plus_base,
    rational_base,
    root_base,
)
from paradd.errors import NotApplicableError


class TestMinimalForm:
    def test_perfect_power_reduces(self):
        reduced, pair = minimal_form(4, 4)
        assert not reduced and pair == (2, 2)
        assert minimal_form(2, 2) == (True, None)
        assert minimal_form(8, 3) == (False, (2, 1))

    def test_minimal_stays(self):
        assert minimal_form(2, 1) == (True, None)
        assert minimal_form(12, 2) == (True, None)

    def test_repeated_and_mixed_powers(self):
        assert minimal_form(16, 4) == (False, (2, 1))
        assert minimal_form(64, 6) == (False, (2, 1))
        assert minimal_form(64, 4) == (False, (8, 2))
        assert minimal_form(3 ** 10, 15) == (False, (9, 3))
        assert minimal_form(2, 3 * 10 ** 7) == (True, None)


class TestF1Values:
    def test_complex_catalog(self):
        assert f1_of(negative_root_base(4, 4)) == 5  # beta = -1+i
        assert f1_of(negative_root_base(4, 2)) == 5  # beta = 2i
        assert f1_of(negative_root_base(2, 2)) == 3  # beta = i*sqrt(2)

    def test_real_families(self):
        assert f1_of(negative_integer_base(2)) == 3
        assert f1_of(integer_base(10)) == 9
        assert f1_of(pisot_minus_base(4)) == 2  # a - 2
        assert f1_of(pisot_plus_base(3)) == 3   # a
        assert f1_of(root_base(2, 2)) == 1

    def test_rational_not_applicable(self):
        with pytest.raises(NotApplicableError):
            f1_of(rational_base(3, 2))


class TestReports:
    def test_minimal_sizes(self):
        cases = [
            (negative_root_base(4, 4), 5),
            (negative_root_base(4, 2), 5),
            (negative_root_base(2, 2), 3),
            (pisot_minus_base(4), 4),      # |f(1)| + 2 = a
            (pisot_plus_base(3), 5),       # a + 2
            (rational_base(3, 2), 5),      # a + b
            (negative_rational_base(3, 2), 5),
            (negative_integer_base(2), 3),
            (integer_base(10), 11),
            (root_base(4, 4), 3),          # sqrt(2), as root:2,2
            (root_base(2, 2), 3),
        ]
        for base, expected in cases:
            assert minimal_alphabet_size(base) == expected, base.describe()

    def test_report_fields(self):
        rep = minimal_alphabet_report(pisot_plus_base(3))
        js = rep.to_json()
        assert js["minimal_size"] == 5
        assert rep.minimal_size == max(
            v for v in (rep.ceiling_bound, rep.f1_bound, rep.direct_bound)
            if v is not None)
