"""Exact zero tests on digit strings, and value enclosures."""

import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paradd.algebra import (
    reduce_mod_base,
    represents_zero,
    values_equal,
)
from paradd.cli import parse_base
from paradd.core import (
    NEGATIVE_ROOT,
    ROOT,
    DigitString,
    digitwise_negate,
    digitwise_sum,
    integer_base,
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
from paradd.errors import UnsupportedBaseError
from paradd.expansions import value_bounds
from paradd.oracle import _value_form, values_zero_batch

BASES = [
    integer_base(10),
    negative_integer_base(2),
    root_base(2, 2),
    negative_root_base(4, 4),
    pisot_minus_base(3),
    pisot_plus_base(2),
    rational_base(3, 2),
    negative_rational_base(3, 2),
]


class TestReduction:
    def test_monic_linear_exact_remainder(self):
        # X - 1 reduced mod X + 2 leaves the exact integer -3.
        r = reduce_mod_base(DigitString((1, -1)), negative_integer_base(2))
        assert (r.digits, r.lsd_exponent) == ((-3,), 0)

    def test_negative_exponents_cleared(self):
        # X^-1 over base -2: X^-1 * X = 1, then reduce.
        r = reduce_mod_base(DigitString((1,), -1), negative_integer_base(2))
        assert not r.is_zero

    def test_zero_multiples(self):
        # (X + 2) * (X - 5) is 0 mod X + 2.
        p = DigitString((1, -3, -10))
        assert reduce_mod_base(p, negative_integer_base(2)).is_zero
        # 2X - 3 is 0 in base 3/2.
        assert reduce_mod_base(DigitString((2, -3)),
                               rational_base(3, 2)).is_zero
        # X^2 - 3X + 1 over the quadratic base.
        assert reduce_mod_base(DigitString((1, -3, 1)),
                               pisot_minus_base(3)).is_zero

    def test_quadratic_remainder_degree(self):
        r = reduce_mod_base(DigitString((1, 0, 0, 0)), pisot_plus_base(2))
        assert r.msd_exponent <= 1


class TestValueEquality:
    def test_numpy_digits_do_not_wrap(self):
        # int8 digits are read as ints: -128 + -128 would wrap to 0, and
        # -128 + 128 would overflow; 64 * 2**2 would wrap to 0 in base 2
        ten = integer_base(10)
        low = DigitString((np.int8(-128),))
        assert not values_equal(low, DigitString((128,)), ten)
        assert values_equal(low, DigitString((-128,)), ten)
        big = DigitString((np.int8(64), np.int8(0), np.int8(0)))
        assert reduce_mod_base(big, integer_base(2)).digits == (256,)
        assert not represents_zero(big, integer_base(2))

    def test_worked_identity(self):
        # 3 = (X^2 + X + 1 at X = -2).
        x = parse_digit_string("3 .")
        y = parse_digit_string("1 1 1 .")
        assert values_equal(x, y, negative_integer_base(2))
        assert not values_equal(x, parse_digit_string("1 1 .",),
                                negative_integer_base(2))

    def test_rational_identity(self):
        # 5 = "2 2" in base 3/2: 2*(3/2) + 2 = 5.
        assert values_equal(parse_digit_string("5 ."),
                            parse_digit_string("2 2 ."),
                            rational_base(3, 2))

    def test_fractional_positions(self):
        # base -2: "1 1 . 1" has value -2 + 1 + (-1/2)... check against
        # the equal string computed by doubling: 4 = "1 0 0 ." base -2.
        b = negative_integer_base(2)
        assert values_equal(parse_digit_string("1 0 0 ."),
                            parse_digit_string("4 ."), b)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=7))
    @settings(max_examples=150)
    def test_fast_zero_test_matches_exact(self, digits):
        # zeroness is shift-invariant, so a plain integer-exponent string
        # covers the general case
        ds = DigitString(tuple(digits), 0)
        row = np.array([digits], dtype=np.int64)
        for base in BASES:
            assert values_zero_batch(row.T, base)[0] == represents_zero(ds, base)

    def test_batch_fallback_matches_exact(self):
        # a leading 2**62 pushes the int64 bound over, so the batch
        # answers through the scalar test; a multiple of the minimal
        # polynomial still reads 0 there
        for base in BASES:
            f = base.minimal_poly
            rows = [[2 ** 40 * c for c in f] + [0],
                    [2 ** 62] + [0] * (len(f) - 1) + [1],
                    [0] * len(f) + [1]]
            C = np.array(rows, dtype=np.int64)
            assert _value_form(f, len(f) + 1, int(np.abs(C).max())) is None
            want = [represents_zero(DigitString(tuple(r)), base) for r in rows]
            assert want == [True, False, False], base.describe()
            assert list(values_zero_batch(C.T, base)) == want, base.describe()

    @pytest.mark.parametrize("base", BASES, ids=lambda b: b.describe())
    def test_each_bound_picks_its_path(self, base):
        # digits of 2**3, 2**32 and 2**62 on 8 positions: int32, int64 and
        # the scalar fallback, which the property test below draws from
        f = base.minimal_poly
        assert _value_form(f, 8, 2 ** 3).dtype == np.int32
        assert _value_form(f, 8, 2 ** 32).dtype == np.int64
        assert _value_form(f, 8, 2 ** 62) is None

    @given(st.sampled_from(BASES), st.sampled_from([3, 32, 62]),
           st.integers(1, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_exact_on_every_path(self, base, bits, width, data):
        # columns of at most 2**bits in magnitude, half of them multiples
        # of the minimal polynomial f (which represent 0)
        f = base.minimal_poly
        digit = st.integers(-2 ** bits, 2 ** bits)
        cols = []
        for _ in range(data.draw(st.integers(1, 6))):
            if width > len(f) and data.draw(st.booleans()):
                q = data.draw(st.lists(st.integers(-3, 3),
                                       min_size=width - len(f) + 1,
                                       max_size=width - len(f) + 1))
                col = [sum(q[i] * f[k - i] for i in range(len(q))
                           if 0 <= k - i < len(f)) for k in range(width)]
                scale = max(1, 2 ** bits // (3 * sum(map(abs, f)) * width))
                col = [c * scale for c in col]
            else:
                col = data.draw(st.lists(digit, min_size=width,
                                         max_size=width))
            cols.append(col)
        C = np.array(cols, dtype=np.int64).T
        want = [represents_zero(DigitString(tuple(c)), base) for c in cols]
        assert list(values_zero_batch(C, base)) == want


def _beta_mpc(base):
    """beta as an mpmath.mpc at the working precision."""
    frac = base.beta_fraction
    if frac is not None:
        return mpmath.mpc(mpmath.mpf(frac.numerator) / frac.denominator)
    if base.kind not in (ROOT, NEGATIVE_ROOT):
        A, B = base.quadratic_coeffs
        return mpmath.mpc((A + mpmath.sqrt(A * A + 4 * B)) / 2)
    b, k = base.param("b"), base.param("k")
    if base.kind == ROOT:
        return mpmath.mpc(mpmath.root(b, k))
    if (b, k) == (4, 4):  # the catalog's -1+i, a root of X**4 + 4
        return mpmath.mpc(-1, 1)
    return mpmath.root(b, k) * mpmath.expjpi(mpmath.mpf(1) / k)


class TestMinimalPolynomial:
    """Zero tests divide by beta's minimal polynomial, not by X^k -+ b."""

    def test_minus_one_plus_i(self):
        # beta^2 + 2 beta + 2 = 0, a proper factor of X^4 + 4
        base = parse_base("-1+i")
        assert represents_zero(parse_digit_string("1 2 2 ."), base)
        assert not represents_zero(parse_digit_string("1 -2 2 ."), base)

    def test_perfect_power_roots(self):
        # beta = 4**(1/2) = 2 and beta = 4**(1/4) = sqrt(2)
        two = parse_digit_string("2 .")
        assert values_equal(parse_digit_string("1 0 ."), two,
                            parse_base("root:4,2,+"))
        assert values_equal(parse_digit_string("1 0 0 ."), two,
                            parse_base("root:4,4,+"))
        assert not values_equal(parse_digit_string("1 0 ."), two,
                                parse_base("root:4,4,+"))

    def test_reducible_negative_root_refused(self):
        # X^3 + 8 = (X + 2)(X^2 - 2X + 4): no supported minimal polynomial
        with pytest.raises(UnsupportedBaseError):
            parse_base("root:8,3,-")

    @pytest.mark.parametrize("text", [
        "-2", "3/2", "-3/2", "pisot-:3", "pisot+:2", "root:2,2,+", "-1+i",
        "2i", "isqrt2", "2", "10", "root:4,4,+", "root:3,3,-"])
    def test_minimal_poly_vanishes_at_beta(self, text):
        base = parse_base(text)
        with mpmath.workprec(200):
            beta = _beta_mpc(base)
            value = mpmath.mpc(0)
            for c in base.minimal_poly:
                value = value * beta + c
            assert abs(value) < mpmath.mpf(2) ** -150, value

    def test_long_strings(self):
        # 10**4 digits, so many pairwise merges with a ragged last block:
        # adding multiples of the minimal polynomial (dense enough that
        # every block of the difference is nonzero) keeps the value, and
        # one changed digit does not
        rng = random.Random(5)
        n = 10_001
        digits = [rng.randint(-3, 3) for _ in range(n)]
        x = DigitString(tuple(digits), -7)
        for base in BASES:
            f = base.minimal_poly
            moved = list(digits)
            for _ in range(n // 2):
                i, k = rng.randrange(n - len(f)), rng.randint(-3, 3)
                for j, c in enumerate(f):
                    moved[i + j] += k * c
            assert values_equal(x, DigitString(tuple(moved), -7), base)
            moved[n // 2] += 1
            assert not values_equal(x, DigitString(tuple(moved), -7), base)

    def test_linear_remainder_is_scaled_value(self):
        # for f = bX + c the remainder is p(-c/b) * b**(n-1), exactly
        rng = random.Random(6)
        digits = [rng.randint(-9, 9) for _ in range(1_000)]
        for base in (integer_base(10), negative_integer_base(2),
                     rational_base(3, 2), negative_rational_base(5, 3)):
            beta = base.beta_fraction
            value = Fraction(0)
            for d in digits:
                value = value * beta + d
            b = base.minimal_poly[0]
            r = reduce_mod_base(DigitString(tuple(digits)), base)
            assert r.digits == (value * b ** (len(digits) - 1),)


class TestEnclosures:
    def test_enclosure_contains_true_value(self):
        # base 10: "2 5 ." is exactly the float 25
        assert value_bounds(parse_digit_string("2 5 ."),
                            integer_base(10)) == (25.0, 25.0)

    def test_zero_value_encloses_zero(self):
        # strings of value 0 get exactly (0, 0), and "1 1 0 ." of value
        # 4 - 2 + 0 in base -2 exactly (2, 2)
        for digits, base in [("1 2 .", negative_integer_base(2)),
                             ("2 -3 .", rational_base(3, 2)),
                             ("1 -3 1 .", pisot_minus_base(3)),
                             ("1 0 -2 .", root_base(2, 2))]:
            assert value_bounds(parse_digit_string(digits),
                                base) == (0.0, 0.0)
        b = negative_integer_base(2)
        total = parse_digit_string("1 1 0 .")
        assert values_equal(total, parse_digit_string("2 ."), b)
        assert value_bounds(total, b) == (2.0, 2.0)


def test_poly_helpers():
    p = DigitString((1, 2), 0)
    q = DigitString((1,), 1)
    assert digitwise_sum(p, q).digits == (2, 2)
    assert normalize(digitwise_sum(p, digitwise_negate(p))).is_zero
    assert normalize(DigitString((1, 2), -1)).lsd_exponent == -1
