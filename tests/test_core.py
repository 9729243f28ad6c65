"""Base descriptions, alphabets, and digit-string plumbing."""

import pytest
from hypothesis import given, strategies as st

from paradd.core import (
    Alphabet,
    DigitString,
    digitwise_negate,
    digitwise_sum,
    format_digit_string,
    integer_base,
    make_base,
    make_system,
    negative_integer_base,
    negative_rational_base,
    negative_root_base,
    normalize,
    parse_digit_string,
    pisot_minus_base,
    pisot_plus_base,
    rational_base,
    root_base,
)
from paradd.core import _integer_root_floor
from paradd.errors import (
    AlphabetError,
    DigitStringSyntaxError,
    NonCoprimeError,
    ParameterRangeError,
)


class TestBaseFactories:
    def test_defining_polynomials(self):
        assert integer_base(10).defining_poly == (1, -10)
        assert negative_integer_base(2).defining_poly == (1, 2)
        assert root_base(2, 2).defining_poly == (1, 0, -2)
        assert negative_root_base(4, 4).defining_poly == (1, 0, 0, 0, 4)
        assert pisot_minus_base(3).defining_poly == (1, -3, 1)
        assert pisot_plus_base(2).defining_poly == (1, -2, -1)
        assert rational_base(3, 2).defining_poly == (2, -3)
        assert negative_rational_base(3, 2).defining_poly == (2, 3)

    def test_parameter_validation(self):
        with pytest.raises(ParameterRangeError):
            integer_base(1)
        with pytest.raises(ParameterRangeError):
            pisot_minus_base(2)  # needs a >= 3
        with pytest.raises(ParameterRangeError):
            pisot_plus_base(1)
        with pytest.raises(ParameterRangeError):
            rational_base(2, 3)  # needs a > b
        with pytest.raises(NonCoprimeError):
            rational_base(4, 2)

    def test_real_flags_and_ceilings(self):
        assert integer_base(10).is_real_gt1
        assert pisot_minus_base(3).ceil_beta() == 3
        assert pisot_plus_base(2).ceil_beta() == 3
        assert rational_base(3, 2).ceil_beta() == 2
        assert not negative_integer_base(2).is_real_gt1
        assert not negative_root_base(4, 4).is_real

    def test_perfect_power_roots_are_rational(self):
        assert root_base(4, 2).beta_fraction == 2
        assert root_base(27, 3).beta_fraction == 3
        assert root_base(7, 1).beta_fraction == 7
        assert root_base(8, 2).beta_fraction is None
        assert root_base(8, 2).ceil_beta() == 3

    @given(st.integers(2, 10 ** 500), st.integers(1, 2000))
    def test_integer_root_floor_is_exact(self, b, k):
        n = _integer_root_floor(b, k)
        assert n ** k <= b < (n + 1) ** k

    def test_json_round_trip(self):
        for base in (negative_integer_base(3), pisot_plus_base(4),
                     negative_root_base(4, 4), rational_base(5, 3)):
            from paradd.core import BaseSpec
            assert BaseSpec.from_json(base.to_json()) == base

    def test_make_base_dispatch(self):
        assert make_base("negative-integer", b=2) == negative_integer_base(2)
        assert make_base("rational-pos", a=3, b=2) == rational_base(3, 2)


class TestAlphabet:
    def test_shape(self):
        a = Alphabet(-1, 3)
        assert a.size == 5
        assert list(a) == [-1, 0, 1, 2, 3]
        assert a.shifted(1) == Alphabet(-2, 2)
        assert a.negated() == Alphabet(-3, 1)
        assert 0 in a and 4 not in a

    def test_must_contain_zero(self):
        with pytest.raises(AlphabetError):
            Alphabet(1, 3)
        with pytest.raises(AlphabetError):
            Alphabet(0, 0)


class TestDigitStrings:
    def test_parse_examples(self):
        ds = parse_digit_string("1 1 1 .")
        assert ds.digits == (1, 1, 1) and ds.lsd_exponent == 0
        ds = parse_digit_string("1 1 . 1")
        assert ds.digits == (1, 1, 1) and ds.lsd_exponent == -1
        assert parse_digit_string(". 1").lsd_exponent == -1

    def test_parse_normalizes(self):
        assert parse_digit_string("0 0 3 .").digits == (3,)
        assert parse_digit_string("1 . 0").lsd_exponent == 0
        assert parse_digit_string("0 . 0").is_zero

    def test_parse_errors(self):
        for bad in ("1 . 2 . 3", "1 x", "", "2 1"):
            with pytest.raises(DigitStringSyntaxError):
                parse_digit_string(bad)

    def test_format_examples(self):
        assert format_digit_string(DigitString((1, 1, 1), 0)) == "1 1 1 ."
        assert format_digit_string(DigitString((1, 1, 1), -1)) == "1 1 . 1"
        assert format_digit_string(DigitString((1,), -2)) == ". 0 1"
        assert format_digit_string(DigitString((1,), 2)) == "1 0 0 ."
        assert format_digit_string(DigitString.zero()) == "."
        assert parse_digit_string(".").is_zero

    def test_digit_at_and_shift(self):
        ds = DigitString((3, -1, 2), -1)
        assert ds.msd_exponent == 1
        assert ds.digit_at(1) == 3 and ds.digit_at(-1) == 2
        assert ds.digit_at(5) == 0 and ds.digit_at(-5) == 0
        assert ds.shifted(2).msd_exponent == 3

    def test_digitwise_ops(self):
        x = parse_digit_string("1 1 .")
        y = parse_digit_string("1 .")
        assert digitwise_sum(x, y).digits == (1, 2)
        assert digitwise_negate(x).digits == (-1, -1)

    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=10),
           st.integers(-4, 4))
    def test_parse_format_round_trip(self, digits, lsd):
        ds = normalize(DigitString(tuple(digits), lsd))
        assert parse_digit_string(format_digit_string(ds)) == ds


def test_make_system_carries_bound_flag():
    sys_ = make_system(negative_integer_base(2), Alphabet(0, 2))
    assert sys_.alphabet.size == 3
    assert sys_.meets_lower_bound
    small = make_system(integer_base(10), Alphabet(0, 10))
    assert small.meets_lower_bound
