"""Exact zero tests for digit strings, modulo the base's minimal polynomial.

A digit string x = sum x_j beta**j is read as a Laurent polynomial in
beta, its digits (any integers) the coefficients.  Two digit strings
represent the same number exactly when their digitwise difference, with
the radix shift cleared, is divisible by the minimal polynomial of beta;
divisibility by a polynomial that merely vanishes at beta would be
sufficient but not necessary.  It is all arithmetic on Python ints, each
digit read by ``int`` first so that numpy digits cannot wrap; certified
float bounds on a value are :func:`paradd.expansions.value_bounds`.
"""

from __future__ import annotations

from .core import (BaseSpec, DigitString, digitwise_negate, digitwise_sum,
                   normalize)


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
    coeffs = [*map(int, p.digits), *[0] * max(0, p.lsd_exponent)]
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
    x, y = (DigitString(tuple(map(int, s.digits)), s.lsd_exponent)
            for s in (x, y))
    return represents_zero(digitwise_sum(x, digitwise_negate(y)), base)


def represents_zero(x: DigitString, base: BaseSpec) -> bool:
    return reduce_mod_base(x, base).is_zero
