"""Exact zero tests for digit strings, modulo the base's minimal polynomial.

A digit string x = sum x_j beta**j is read as a Laurent polynomial in
beta, its digits (any integers) the coefficients.  Two digit strings
represent the same number exactly when their digitwise difference, with
the radix shift cleared, is divisible by the minimal polynomial of beta;
divisibility by a polynomial that merely vanishes at beta would be
sufficient but not necessary.  Everything here is integer arithmetic; the
only approximate entry point is :func:`eval_approx`, which returns
certified interval enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (BaseSpec, DigitString, NEGATIVE_ROOT, ROOT,
                   digitwise_negate, digitwise_sum, normalize)
from .errors import PrecisionExhaustedError


def reduce_mod_base(p: DigitString, base: BaseSpec) -> DigitString:
    """Remainder of ``p * X**s`` modulo beta's minimal polynomial f.

    ``p`` is normalized first; its digits are the coefficients, msd
    first.  ``s = max(0, -lsd)`` clears negative exponents (valid because
    X is invertible modulo f: its constant term is never 0).  A monic f
    of degree >= 2 gives the exact integer remainder by synthetic
    division.  A linear f = b*X + c gives the constant remainder p(-c/b)
    times b**(n-1), n the number of digits: an integer, exact when b = 1.
    The remainder comes back normalized, so ``p`` represents the value 0
    iff it :attr:`~paradd.core.DigitString.is_zero`.  This is the
    package's one scalar exact zero test; ``oracle.values_zero_batch`` is
    its batched form.
    """
    p = normalize(p)
    coeffs = list(p.digits) + [0] * max(0, p.lsd_exponent)
    divisor = base.minimal_poly
    if len(divisor) == 2:
        return normalize(DigitString((_linear_value(coeffs, *divisor),)))
    d = len(divisor) - 1
    tail = divisor[1:]
    for i in range(len(coeffs) - d):
        lead = coeffs[i]
        if lead:
            for j, a in enumerate(tail, i + 1):
                coeffs[j] -= lead * a
    return normalize(DigitString(tuple(coeffs[-d:])))


_HORNER_CHUNK = 64


def _linear_value(coeffs, b: int, c: int) -> int:
    """b**(n-1) * p(-c/b) for the n coefficients of p, msd first.

    Fraction-free Horner over chunks, then pairwise merging: a block A
    followed by a block B has value val(A) * (-c)**len(B) +
    val(B) * b**len(A).  The merges multiply operands of equal size, so
    the whole costs a few multiplications of the final size, where one
    Horner pass over the whole string would be quadratic in its length.
    """
    n = len(coeffs)
    b_pow = [b ** j for j in range(_HORNER_CHUNK)]
    level = []
    for i in range(0, n, _HORNER_CHUNK):
        acc = 0
        for x, bj in zip(coeffs[i:i + _HORNER_CHUNK], b_pow):
            acc = acc * -c + x * bj
        level.append(acc)
    size = _HORNER_CHUNK  # length of every block but the last
    while len(level) > 1:
        last = n - size * (len(level) - 1)
        c_size, b_size = (-c) ** size, b ** size
        merged = [level[i] * c_size + level[i + 1] * b_size
                  for i in range(0, len(level) - 2, 2)]
        if len(level) % 2:
            merged.append(level[-1])
        else:
            merged.append(level[-2] * (-c) ** last + level[-1] * b_size)
        level = merged
        size *= 2
    return level[0] if level else 0


def values_equal(x: DigitString, y: DigitString, base: BaseSpec) -> bool:
    """Exactly decide whether x and y represent the same number in base."""
    return represents_zero(digitwise_sum(x, digitwise_negate(y)), base)


def represents_zero(x: DigitString, base: BaseSpec) -> bool:
    return reduce_mod_base(x, base).is_zero


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
