"""Exact arithmetic in Z[X, X^-1] modulo the base's defining polynomial.

Two digit strings represent the same number exactly when their difference,
read as a Laurent polynomial in the base, is divisible by the defining
polynomial (after clearing the radix shift).  Everything here is integer
arithmetic; the only approximate entry point is :func:`eval_approx`, which
returns certified interval enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import BaseSpec, DigitString, NEGATIVE_ROOT, ROOT
from .errors import PrecisionExhaustedError


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial; coefficients most significant first.

    ``coeffs[i]`` multiplies ``X**(msd_exponent - i)``.  Zero is the empty
    tuple.  Construct via :func:`laurent` to get normalized instances.
    """

    coeffs: tuple
    lsd_exponent: int = 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def msd_exponent(self) -> int:
        return self.lsd_exponent + len(self.coeffs) - 1

    def coeff_at(self, exponent: int) -> int:
        if self.lsd_exponent <= exponent <= self.msd_exponent:
            return self.coeffs[self.msd_exponent - exponent]
        return 0


def laurent(coeffs, lsd_exponent: int = 0) -> LaurentPoly:
    """Normalized Laurent polynomial from msd-first coefficients."""
    coeffs = [int(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        lsd_exponent += 1
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        return LaurentPoly((), 0)
    return LaurentPoly(tuple(coeffs), lsd_exponent)


def to_poly(ds: DigitString) -> LaurentPoly:
    """Digit string -> Laurent polynomial (digit at exponent j -> coeff of X^j)."""
    return laurent(ds.digits, ds.lsd_exponent)


def poly_add(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    if p.is_zero:
        return q
    if q.is_zero:
        return p
    lsd = min(p.lsd_exponent, q.lsd_exponent)
    msd = max(p.msd_exponent, q.msd_exponent)
    return laurent(
        [p.coeff_at(e) + q.coeff_at(e) for e in range(msd, lsd - 1, -1)], lsd)


def poly_sub(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    return poly_add(p, poly_scale(q, -1))


def poly_scale(p: LaurentPoly, c: int) -> LaurentPoly:
    if c == 0 or p.is_zero:
        return LaurentPoly((), 0)
    return LaurentPoly(tuple(c * x for x in p.coeffs), p.lsd_exponent)


def poly_shift(p: LaurentPoly, delta: int) -> LaurentPoly:
    """Multiply by X**delta."""
    if p.is_zero:
        return p
    return LaurentPoly(p.coeffs, p.lsd_exponent + delta)


def reduce_mod_base(p: LaurentPoly, base: BaseSpec) -> LaurentPoly:
    """Canonical remainder of ``p * X**s`` modulo the defining polynomial.

    ``s = max(0, -lsd)`` clears negative exponents first (valid because X
    is invertible modulo every defining polynomial here: the constant term
    is never 0).  Monic divisors give the exact integer remainder; the
    non-monic (rational base) divisors give a primitive integer
    representative of it.  Either way, ``p`` represents the value 0 iff
    the result :attr:`~LaurentPoly.is_zero`.
    """
    if p.is_zero:
        return p
    shift = max(0, -p.lsd_exponent)
    work = poly_shift(p, shift)
    # plain polynomial now: exponents lsd..msd, all >= 0
    coeffs = list(work.coeffs) + [0] * work.lsd_exponent
    divisor = base.defining_poly
    rem = _poly_remainder(coeffs, divisor)
    return laurent(rem, 0)


def _poly_remainder(coeffs, divisor):
    """Integer remainder of coeffs / divisor (both msd-first).

    Every defining polynomial is monic or linear.  Monic divisors give
    the exact remainder by synthetic division; a linear non-monic one
    gives a primitive integer multiple of its constant remainder.
    """
    if len(divisor) == 2 and divisor[0] != 1:
        # Linear non-monic b*X + c with root -c/b: the remainder is a
        # constant, zero iff the value at the root is zero.  Evaluate
        # fraction-free: acc accumulates value * b**(n-1).
        b, c = divisor
        acc = 0
        for j, x in enumerate(coeffs):
            acc = acc * (-c) + x * b ** j
        return _make_primitive([acc])
    # monic synthetic division: exact integer remainder, kept as-is
    rem = list(coeffs)
    d = len(divisor) - 1
    for i in range(len(rem) - d):
        lead = rem[i]
        if lead:
            for j in range(1, d + 1):
                rem[i + j] -= lead * divisor[j]
            rem[i] = 0
    return rem[-d:] if d <= len(rem) else rem


def _make_primitive(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        return []
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if coeffs[0] < 0:
        g = -g
    return [c // g for c in coeffs]


def values_equal(x: DigitString, y: DigitString, base: BaseSpec) -> bool:
    """Exactly decide whether x and y represent the same number in base."""
    diff = poly_sub(to_poly(x), to_poly(y))
    return reduce_mod_base(diff, base).is_zero


def represents_zero(x: DigitString, base: BaseSpec) -> bool:
    return reduce_mod_base(to_poly(x), base).is_zero


# -- fast integer predicates for hot loops -----------------------------


def make_zero_value_test(base: BaseSpec):
    """Return f(coeffs_msd_first) -> bool testing value == 0 in base.

    Specialized integer-only paths: synthetic division for monic defining
    polynomials, scaled Horner evaluation for the linear non-monic ones.
    Used by the verification oracle where millions of tests run.
    """
    divisor = base.defining_poly
    if divisor[0] != 1:
        b, c = divisor  # b*X + c, root -c/b

        def test_linear(coeffs) -> bool:
            acc = 0
            for j, x in enumerate(coeffs):
                acc = acc * (-c) + x * b ** j
            return acc == 0

        return test_linear

    d = len(divisor) - 1
    tail = divisor[1:]

    def test_monic(coeffs) -> bool:
        rem = list(coeffs)
        for i in range(len(rem) - d):
            lead = rem[i]
            if lead:
                for j in range(d):
                    rem[i + 1 + j] -= lead * tail[j]
        return all(x == 0 for x in rem[max(0, len(rem) - d):])

    return test_monic


# -- certified interval evaluation --------------------------------------


@dataclass(frozen=True)
class ComplexEnclosure:
    """Axis-aligned box known to contain the exact value.

    Bounds are floats rounded outward; ``im_lo == im_hi == 0.0`` for real
    bases evaluated exactly on the real axis.
    """

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def contains(self, z: complex, slack: float = 0.0) -> bool:
        return (self.re_lo - slack <= z.real <= self.re_hi + slack
                and self.im_lo - slack <= z.imag <= self.im_hi + slack)

    @property
    def midpoint(self) -> complex:
        return complex((self.re_lo + self.re_hi) / 2,
                       (self.im_lo + self.im_hi) / 2)

    @property
    def is_real(self) -> bool:
        return self.im_lo <= 0.0 <= self.im_hi

    def to_json(self) -> dict:
        return {"re": [self.re_lo, self.re_hi], "im": [self.im_lo, self.im_hi]}


def _beta_intervals(base: BaseSpec, iv):
    """(re, im) iv.mpf enclosures of beta under the current iv context."""
    kind = base.kind
    zero = iv.mpf(0)
    frac = base.beta_fraction
    if frac is not None:
        return iv.mpf(frac.numerator) / iv.mpf(frac.denominator), zero
    if kind == ROOT:
        b, k = base.param("b"), base.param("k")
        return iv.exp(iv.log(iv.mpf(b)) / k), zero
    if kind == NEGATIVE_ROOT:
        b, k = base.param("b"), base.param("k")
        if (b, k) == (4, 4):
            # catalog representative -1 + i (beta**4 = -4)
            return iv.mpf(-1), iv.mpf(1)
        rho = iv.exp(iv.log(iv.mpf(b)) / k)
        theta = iv.pi / k
        return rho * iv.cos(theta), rho * iv.sin(theta)
    # real quadratic: beta = (a + sqrt(a^2 -+ 4)) / 2
    a = base.param("a")
    if kind == "pisot-minus":
        return (iv.mpf(a) + iv.sqrt(iv.mpf(a * a - 4))) / 2, zero
    return (iv.mpf(a) + iv.sqrt(iv.mpf(a * a + 4))) / 2, zero


def eval_approx(ds: DigitString, base: BaseSpec,
                precision_bits: int = 128) -> ComplexEnclosure:
    """Certified interval evaluation of a digit string's value.

    Diagnostic only --- correctness decisions in this package always go
    through :func:`values_equal`.  Uses interval arithmetic throughout,
    so the returned box genuinely contains the exact value.
    """
    from mpmath import iv

    old_prec = iv.prec
    iv.prec = precision_bits
    try:
        bre, bim = _beta_intervals(base, iv)
        zre, zim = iv.mpf(0), iv.mpf(0)
        # Horner msd-first, then multiply by beta**lsd at the end.
        for d in ds.digits:
            zre, zim = zre * bre - zim * bim + d, zre * bim + zim * bre
        e = ds.lsd_exponent
        if ds.digits and e != 0:
            pre, pim = iv.mpf(1), iv.mpf(0)
            n = abs(e)
            for _ in range(n):
                pre, pim = pre * bre - pim * bim, pre * bim + pim * bre
            if e > 0:
                zre, zim = zre * pre - zim * pim, zre * pim + zim * pre
            else:
                # divide by beta**n: multiply by conjugate / |.|^2
                den = pre * pre + pim * pim
                if 0 in den:
                    raise PrecisionExhaustedError(
                        "interval for beta**n straddles zero; raise precision")
                zre, zim = ((zre * pre + zim * pim) / den,
                            (zim * pre - zre * pim) / den)
        return ComplexEnclosure(float(zre.a), float(zre.b),
                                float(zim.a), float(zim.b))
    finally:
        iv.prec = old_prec
