"""Exact arithmetic for checking expansions, independent of paradd.

A rational base beta is a Fraction.  A real quadratic base with
beta**2 = A*beta + B is handled through pairs (u, v) meaning u + v*beta,
with exact signs from beta = (A + sqrt(D))/2, D = A**2 + 4*B.  Nothing
here calls the engine, so a wrong expansion cannot vouch for itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class Field:
    """Q(beta) for the base written as the CLI's ``--base`` text."""

    def __init__(self, text: str):
        self.text = text
        self.quad = None
        if text.startswith("pisot-:"):
            self.quad = (int(text[7:]), -1)
        elif text.startswith("pisot+:"):
            self.quad = (int(text[7:]), 1)
        elif text.startswith("root:") and text.endswith(",2,+"):
            self.quad = (0, int(text[5:].split(",")[0]))
        else:
            self.beta_q = Fraction(text)
        if self.quad:
            A, B = self.quad
            self.disc = A * A + 4 * B

    # elements are (u, v) = u + v*beta; rational bases keep v = 0

    def const(self, q) -> tuple:
        return (Fraction(q), Fraction(0))

    def beta(self) -> tuple:
        return (Fraction(0), Fraction(1)) if self.quad else (self.beta_q, Fraction(0))

    @staticmethod
    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def sub(x, y):
        return (x[0] - y[0], x[1] - y[1])

    @staticmethod
    def scale(x, q):
        return (x[0] * q, x[1] * q)

    def mul(self, x, y):
        u = x[0] * y[0]
        v = x[0] * y[1] + x[1] * y[0]
        w = x[1] * y[1]
        if w:
            A, B = self.quad
            return (u + w * B, v + w * A)
        return (u, v)

    def times_beta(self, x):
        if not self.quad:
            return (x[0] * self.beta_q, Fraction(0))
        A, B = self.quad
        return (x[1] * B, x[0] + x[1] * A)

    def over_beta(self, x):
        if not self.quad:
            return (x[0] / self.beta_q, Fraction(0))
        A, B = self.quad  # 1/beta = (beta - A)/B
        return ((x[1] * B - x[0] * A) / B, x[0] / B)

    def sign(self, x) -> int:
        u, v = x
        if not self.quad:
            return (u > 0) - (u < 0)
        A, _ = self.quad
        p, q = u + v * A / 2, v / 2   # x = p + q*sqrt(D)
        sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
        if sp == sq or sq == 0:
            return sp
        if sp == 0:
            return sq
        return sp * ((p * p > q * q * self.disc) - (p * p < q * q * self.disc))

    def ceil_beta(self) -> int:
        if not self.quad:
            return -((-self.beta_q.numerator) // self.beta_q.denominator)
        A, _ = self.quad
        return (A + isqrt(self.disc)) // 2 + 1

    def power(self, e: int):
        x = self.const(1)
        step = self.times_beta if e >= 0 else self.over_beta
        for _ in range(abs(e)):
            x = step(x)
        return x

    def value(self, digits, lsd_exponent: int):
        """Exact value of an msd-first digit tuple."""
        acc = self.const(0)
        for d in digits:
            acc = self.add(self.times_beta(acc), self.const(d))
        return self.mul(acc, self.power(lsd_exponent))


def parse_digits(text: str):
    """(digits, lsd_exponent) from the CLI's text grammar, e.g. '1 2 . 1'."""
    tokens = text.split()
    dot = tokens.index(".")
    digits = tuple(int(t) for t in tokens if t != ".")
    return digits, -(len(tokens) - 1 - dot)


def check_expansion(field: Field, kind: str, x: Fraction, m: int,
                    digits, lsd: int, exact: bool) -> str:
    """Empty string when the expansion is right, else the reason.

    A result marked exact must equal x.  A truncated one must satisfy
    |x - value| <= C * beta**lsd: the remainder window has width one, is
    [m/(beta-1), m/(beta-1) + 1) for greedy (m = 0) and window expansions
    and [-1/2, 1/2) for symmetric ones, and trailing zeros stripped from
    the string only raise lsd.  The bound is tested multiplied by
    beta - 1 > 0 so that it stays inside Q(beta).
    """
    width = field.ceil_beta()
    beta_minus_1 = field.sub(field.beta(), field.const(1))
    for d in digits:
        if kind in ("greedy", "window") and not m <= d <= m + width - 1:
            return f"digit {d} outside {{{m}..{m + width - 1}}}"
        if kind == "symmetric" and field.sign(
                field.sub(field.add(field.beta(), field.const(1)),
                          field.const(2 * abs(d)))) <= 0:
            return f"digit {d} not below (beta+1)/2 in absolute value"
    delta = field.sub(field.const(x), field.value(digits, lsd))
    s = field.sign(delta)
    if exact:
        return "" if s == 0 else "marked exact but value differs"
    if s == 0:
        return "value is exact but marked inexact"
    if kind == "greedy" and s < 0:
        return "greedy truncation exceeds x"
    c0 = Fraction(1, 2) if kind == "symmetric" else Fraction(1)
    radius = field.add(field.scale(beta_minus_1, c0), field.const(abs(m)))
    slack = field.sub(field.mul(radius, field.power(lsd)),
                      field.mul(field.scale(delta, s), beta_minus_1))
    if field.sign(slack) < 0:
        return "truncation error above the remainder bound"
    return ""


def check_euclid(field: Field, n: int, digits, lsd: int) -> str:
    a = abs(field.beta_q.numerator)
    if any(not 0 <= d < a for d in digits):
        return f"digit outside {{0..{a - 1}}}"
    if lsd < 0 or field.value(digits, lsd) != field.const(n):
        return "value differs from n"
    return ""
