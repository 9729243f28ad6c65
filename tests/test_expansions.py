"""Digit expansions: Euclidean, greedy, windowed, symmetric."""

import math
import sys
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from paradd.algebra import values_equal
from paradd.core import (
    DigitString,
    format_digit_string,
    normalize,
    integer_base,
    negative_integer_base,
    negative_rational_base,
    negative_root_base,
    parse_digit_string,
    pisot_minus_base,
    pisot_plus_base,
    rational_base,
    root_base,
)
from paradd.errors import (
    NegativeInputError, NotInWindowError, UnsupportedBaseError,
)
from paradd.expansions import (
    _FieldElement,
    _descale,
    _expand,
    euclid_expansion,
    greedy_expansion,
    symmetric_expansion,
    tm_expansion,
    value_bounds,
)

# CPU seconds allowed for one expansion that used to take seconds or more.
FAST_S = 0.1


def _cpu_timed(fn, *args):
    start = time.process_time()
    out = fn(*args)
    return out, time.process_time() - start


def _beta_mp(base):
    """beta as an mpmath number at the current working precision."""
    frac = base.beta_fraction
    if frac is not None:
        return mpmath.mpf(frac.numerator) / frac.denominator
    A, B = base.quadratic_coeffs
    return (A + mpmath.sqrt(A * A + 4 * B)) / 2


def _scaled_remainder(exp, x, base):
    """(x - value of exp) / beta**lsd, at enough digits to resolve x."""
    ds = exp.string
    with mpmath.workdps(len(str(abs(x.numerator))) + 40):
        beta = _beta_mp(base)
        value = mpmath.mpf(0)
        for d in ds.digits:
            value = value * beta + d
        value *= beta ** ds.lsd_exponent
        x_mp = mpmath.mpf(x.numerator) / x.denominator
        return float((x_mp - value) / beta ** ds.lsd_exponent)


class TestEuclid:
    def test_four_in_base_three_halves(self):
        assert euclid_expansion(4, rational_base(3, 2)).digits == (2, 1)

    def test_round_trip_values(self):
        b = rational_base(3, 2)
        for n in range(0, 40):
            ds = euclid_expansion(n, b)
            assert values_equal(ds, DigitString((n,), 0), b)
            assert all(0 <= d <= 2 for d in ds.digits)

    def test_negative_rational_base_covers_negatives(self):
        b = negative_rational_base(3, 2)
        for n in range(-20, 21):
            ds = euclid_expansion(n, b)
            assert values_equal(ds, DigitString((n,), 0), b)

    def test_negative_integer_base(self):
        b = negative_integer_base(2)
        for n in range(-15, 16):
            ds = euclid_expansion(n, b)
            assert all(d in (0, 1) for d in ds.digits)
            assert values_equal(ds, DigitString((n,), 0), b)

    def test_positive_base_rejects_negative(self):
        with pytest.raises(NegativeInputError):
            euclid_expansion(-1, rational_base(3, 2))
        with pytest.raises(NegativeInputError):
            euclid_expansion(-3, integer_base(10))


class TestRealExpansions:
    def test_greedy_digits_in_range(self):
        b = pisot_minus_base(3)
        exp = greedy_expansion(2, b, max_digits=40)
        assert all(0 <= d < b.ceil_beta() for d in exp.string.digits)
        assert exp.exact and value_bounds(exp.string, b) == (2.0, 2.0)

    def test_greedy_integer_base_matches_decimal(self):
        exp = greedy_expansion(25, integer_base(10))
        assert format_digit_string(exp.string) == "2 5 ."

    def test_windowed_alphabet_range(self):
        b = pisot_plus_base(2)
        for m in (-1, 0):
            exp = tm_expansion(1, m, b, max_digits=40)
            lo, hi = m, m + b.ceil_beta() - 1
            assert all(lo <= d <= hi for d in exp.string.digits)

    def test_windowed_rejects_far_input(self):
        b = pisot_minus_base(3)
        start = time.process_time()
        with pytest.raises(NotInWindowError):
            tm_expansion(-50, 0, b, max_digits=8)
        assert time.process_time() - start < FAST_S

    def test_symmetric_digits_balanced(self):
        b = pisot_minus_base(4)
        exp = symmetric_expansion(1, b, max_digits=40)
        half = b.ceil_beta()
        assert all(-half <= d <= half for d in exp.string.digits)

    def test_expansion_value_certified(self):
        b = pisot_minus_base(3)
        exp = greedy_expansion(5, b, max_digits=60)
        assert exp.exact and value_bounds(exp.string, b) == (5.0, 5.0)


X700 = Fraction(10 ** 700 + 1, 7)


class TestScaling:
    """Huge inputs scaled down fast, small ones scaled up into a window."""

    @pytest.mark.parametrize("fn, x, base, max_digits, window", [
        (greedy_expansion, 10 ** 30, pisot_minus_base(3), 64, (0, 1)),
        (greedy_expansion, 10 ** 200, pisot_minus_base(3), 50, (0, 1)),
        (greedy_expansion, 10 ** 600, integer_base(10), 64, (0, 1)),
        (greedy_expansion, X700, integer_base(10), 64, (0, 1)),
        (symmetric_expansion, -X700, integer_base(10), 64, (-0.5, 0.5)),
    ], ids=["pisot-3-1e30", "pisot-3-1e200", "base10-1e600",
            "base10-greedy-1e700", "base10-symmetric-1e700"])
    def test_large_input_answered_fast(self, fn, x, base, max_digits, window):
        x = Fraction(x)
        exp, cpu_s = _cpu_timed(fn, x, base, max_digits)
        assert cpu_s < FAST_S
        r = _scaled_remainder(exp, x, base)
        assert window[0] - 1e-12 <= r <= window[1] + 1e-12

    def test_power_of_ten_is_exact(self):
        exp = greedy_expansion(10 ** 600, integer_base(10))
        assert exp.exact and exp.string == DigitString((1,), 600)

    def test_windowed_1e700_base10(self):
        # window [-4/9, 5/9) of the alphabet {-4..5}
        exp, cpu_s = _cpu_timed(tm_expansion, -X700, -4, integer_base(10))
        assert cpu_s < FAST_S
        assert all(-4 <= d <= 5 for d in exp.string.digits)
        r = _scaled_remainder(exp, -X700, integer_base(10))
        assert -4 / 9 - 1e-12 <= r <= 5 / 9 + 1e-12

    @pytest.mark.parametrize("x, base", [
        (Fraction(-4, 3), root_base(2, 2)),
        (Fraction(-1), root_base(2, 2)),
        (Fraction(-1), rational_base(3, 2)),
    ], ids=["-4/3-root2", "-1-root2", "-1-3/2"])
    def test_small_negative_input_scales_up(self, x, base):
        # alphabet {-1, 0}: the window [-1/(beta-1), 1 - 1/(beta-1))
        # excludes 0, so |x| below it is scaled up by a power of beta
        exp = tm_expansion(x, -1, base, max_digits=30)
        assert exp.string.digits and set(exp.string.digits) <= {-1, 0}
        r = _scaled_remainder(exp, x, base)
        lower = -1 / (float(_beta_mp(base)) - 1)
        assert lower - 1e-12 <= r <= 1e-12

    def test_perfect_power_root_is_rational(self):
        base = root_base(4, 2)
        assert base.beta_fraction == 2 and base.ceil_beta() == 2
        exp = tm_expansion(3, 0, base)
        assert exp.exact and format_digit_string(exp.string) == "1 1 ."


# (A, B) with beta**2 = A*beta + B: pisot-minus, pisot-plus and root:b,2
QUADRATICS = [(3, -1), (4, -1), (9, -1), (2, 1), (3, 1), (0, 2), (0, 3),
              (0, 10 ** 30 + 1)]


class TestExactOrder:
    @given(st.sampled_from(QUADRATICS),
           st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30),
           st.integers(1, 10 ** 20), st.integers(-3, 3), st.booleans())
    def test_floor_and_sign_match_interval_enclosure(self, quad, u, v, n,
                                                     delta, near):
        A, B = quad
        D = A * A + 4 * B
        if near:  # u + v*sqrt(D) within a few units of 0
            u = delta - (1 if v > 0 else -1) * math.isqrt(v * v * D)
        x = _FieldElement(u, v, n, D)
        iv = mpmath.iv
        old, iv.prec = iv.prec, 256
        try:
            with mpmath.workprec(256):
                enc = (iv.mpf(u) + iv.mpf(v) * iv.sqrt(iv.mpf(D))) / n
                lo, hi = mpmath.mpf(enc.a), mpmath.mpf(enc.b)
                floors = int(mpmath.floor(lo)), int(mpmath.floor(hi))
        finally:
            iv.prec = old
        if u == 0 and v == 0:
            assert x.sign() == 0 and x.floor() == 0
            return
        # the rare enclosure that straddles the answer decides nothing
        assume(lo > 0 or hi < 0)
        assert x.sign() == (1 if lo > 0 else -1)
        assume(floors[0] == floors[1])
        assert x.floor() == floors[0]

    @given(st.sampled_from(QUADRATICS + [(None, Fraction(3, 2)),
                                         (None, Fraction(10))]),
           st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(1, 99),
           st.integers(-800, 800), st.integers(0, 9))
    def test_descale_finds_the_nearest_power(self, quad, p, q, e, m_pick):
        A, B = quad
        if A is None:
            beta = _FieldElement(B.numerator, 0, B.denominator, 0)
        else:
            beta = _FieldElement(A, 1, 2, A * A + 4 * B)
        # the window of the alphabet {m..m+ceil(beta)-1}
        m = -(m_pick % -(beta * -1).floor())
        lower = (beta - 1).inverse() * m
        upper = lower + 1
        x = beta.const(Fraction(p, q) * Fraction(10) ** e)

        def in_window(y):
            return (y - lower).sign() >= 0 and (y - upper).sign() < 0

        if (x.sign() > 0 and upper.sign() <= 0) or (
                x.sign() < 0 and lower.sign() >= 0):
            with pytest.raises(NotInWindowError):
                _descale(x, beta, lower, upper)
            return
        y, ell = _descale(x, beta, lower, upper)
        assert (y * beta ** ell - x).is_zero
        assert in_window(y)
        assert not in_window(y * beta)


SMALL_BASES = [pisot_minus_base(3), pisot_plus_base(2), root_base(2, 2),
               root_base(3, 2), rational_base(3, 2)]


class TestSmallExpansions:
    @given(st.sampled_from(SMALL_BASES),
           st.sampled_from(["greedy", "window", "symmetric"]),
           st.integers(-1000, 1000), st.integers(1, 60), st.integers(0, 3),
           st.integers(1, 24))
    def test_digits_in_alphabet_and_value_in_window_bound(
            self, base, kind, p, q, m_pick, max_digits):
        x = Fraction(p, q)
        beta = float(_beta_mp(base))
        if kind == "symmetric":
            exp = symmetric_expansion(x, base, max_digits)
            lower = -0.5
            assert all(2 * abs(d) < beta + 1 for d in exp.string.digits)
        else:
            width = base.ceil_beta()
            m = 0 if kind == "greedy" else -(m_pick % width)
            lower = m / (beta - 1)
            if kind == "greedy":
                x = abs(x)
                exp = greedy_expansion(x, base, max_digits)
            elif (x > 0 and lower + 1 <= 0) or (x < 0 and m == 0):
                with pytest.raises(NotInWindowError):
                    tm_expansion(x, m, base, max_digits)
                return
            else:
                exp = tm_expansion(x, m, base, max_digits)
            assert all(m <= d < m + width for d in exp.string.digits)
        ds = exp.string
        lo, hi = value_bounds(ds, base)
        if exp.exact:
            assert lo <= x <= hi
            return
        tol = 1e-9 * max(1.0, abs(float(x)))
        radius = max(abs(lower), abs(lower + 1)) * beta ** ds.lsd_exponent
        assert lo - radius - tol <= x <= hi + radius + tol


BOUND_BASES = [pisot_minus_base(3), pisot_plus_base(2), pisot_plus_base(5),
               root_base(2, 2), rational_base(3, 2), rational_base(7, 4),
               integer_base(10)]


class TestValueBounds:
    @given(st.sampled_from(BOUND_BASES),
           st.sampled_from(["greedy", "window", "symmetric"]),
           st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
           st.integers(-330, 330), st.integers(0, 9), st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_bounds_enclose_the_value(self, base, kind, p, q, e, m_pick,
                                      max_digits):
        # the reference value: Fraction Horner for a rational base, else
        # mpmath at 400 bits, whose own rounding the slack covers
        x = Fraction(p, q) * Fraction(10) ** e
        if kind == "greedy":
            exp = greedy_expansion(abs(x), base, max_digits)
        elif kind == "symmetric":
            exp = symmetric_expansion(x, base, max_digits)
        else:
            try:
                exp = tm_expansion(x, -(m_pick % base.ceil_beta()), base,
                                   max_digits)
            except NotInWindowError:
                assume(False)
        ds = exp.string
        lo, hi = value_bounds(ds, base)
        frac = base.beta_fraction
        with mpmath.workprec(400):
            if frac is not None:
                value, slack = Fraction(0), 0
                for d in ds.digits:
                    value = value * frac + d
                value *= frac ** ds.lsd_exponent
            else:
                beta, value = _beta_mp(base), mpmath.mpf(0)
                for d in ds.digits:
                    value = value * beta + d
                value *= beta ** ds.lsd_exponent
                slack = abs(value) * mpmath.mpf(2) ** -300
            assert lo - slack <= value <= hi + slack
        if sys.float_info.min <= abs(value) <= sys.float_info.max:
            assert hi <= math.nextafter(math.nextafter(lo, math.inf),
                                        math.inf)

    def test_complex_base_is_refused(self):
        # Q(beta) arithmetic here covers rational and real quadratic bases
        with pytest.raises(UnsupportedBaseError):
            value_bounds(DigitString((1,)), negative_root_base(4, 4))


class TestShiftInvariance:
    """Expanding x * beta**e gives the expansion of x shifted by e.

    Each expansion is defined by the value alone, so this holds at every
    budget: the same digits, the same exactness, or the same refusal.  On
    a quadratic base x * beta**e is irrational, which the public functions
    do not take, so the test runs their driver with each one's window.
    """

    @given(st.sampled_from(BOUND_BASES),
           st.sampled_from(["greedy", "window", "symmetric"]),
           st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6),
           st.integers(-400, 400), st.integers(0, 9), st.integers(1, 100))
    @settings(max_examples=200, deadline=None)
    def test_scaling_by_beta_shifts_the_digits(self, base, kind, p, q, e,
                                               m_pick, max_digits):
        beta = _FieldElement.beta(base)
        m = -(m_pick % base.ceil_beta()) if kind == "window" else 0
        lower = (Fraction(-1, 2) if kind == "symmetric"
                 else (beta - 1).inverse() * m)
        x = beta.const(Fraction(abs(p) if kind == "greedy" else p, q))
        try:
            want = _expand(x, beta, max_digits, lower)
        except NotInWindowError:
            with pytest.raises(NotInWindowError):
                _expand(x * beta ** e, beta, max_digits, lower)
            return
        got = _expand(x * beta ** e, beta, max_digits, lower)
        assert got.exact == want.exact
        assert got.string == normalize(DigitString(
            want.string.digits, want.string.lsd_exponent + e))
