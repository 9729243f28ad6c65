"""Digit expansions: Euclidean, greedy, windowed, symmetric.

The greedy, windowed and symmetric expansions are one beta-transformation
y -> beta*y - floor(beta*y - lower) on a unit window [lower, lower + 1),
whose lower end is 0, m/(beta-1) or -1/2 (Renyi 1957, Parry 1960).  The
input is scaled into the window by the power of beta that makes its first
digit nonzero.  Every expansion works with an exactly represented
remainder, so digit choices are decided without any floating point.
Every real base here is rational or quadratic, beta = (A + sqrt(D))/2 with
beta**2 = A*beta + B and D = A**2 + 4*B not a square, and a remainder is
kept as (u + v*sqrt(D))/n with integers u, v, n.  Its sign and floor then
follow in O(1) from integer squares and :func:`math.isqrt`.  The same
arithmetic gives :func:`value_bounds`, floats certified to enclose the
value of a digit string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import BaseSpec, DigitString, normalize
from .errors import NegativeInputError, NotInWindowError, UnsupportedBaseError


@dataclass(frozen=True)
class Expansion:
    """Result of an expansion: the digit string plus an exactness flag.

    ``exact`` is False when the digit budget ran out before the remainder
    hit zero; the string is then a truncation of the full expansion.
    """

    string: DigitString
    exact: bool

    def __str__(self) -> str:
        return str(self.string)


class _FieldElement:
    """Exact element (u + v*sqrt(D))/n of Q(beta), with n > 0.

    D is 0 for rational bases, whose elements all have v = 0.  Only common
    factors of 2 are divided out: a full gcd takes time quadratic in the
    size of the numbers, and for a large input it dominates everything.
    """

    __slots__ = ("u", "v", "n", "D")

    def __init__(self, u: int, v: int, n: int, D: int):
        low = u | v | n  # shares the trailing zero bits of u, v and n
        k = (low & -low).bit_length() - 1
        if n < 0:
            u, v, n = -u, -v, -n
        self.u, self.v, self.n, self.D = u >> k, v >> k, n >> k, D

    @classmethod
    def beta(cls, base: BaseSpec) -> "_FieldElement":
        frac = base.beta_fraction
        if frac is not None:
            return cls(frac.numerator, 0, frac.denominator, 0)
        quad = base.quadratic_coeffs
        if quad is None:
            raise UnsupportedBaseError(
                "expansions need a rational or real quadratic base, got "
                f"kind {base.kind!r} of degree {base.degree}",
                kind=base.kind)
        A, B = quad
        return cls(A, 1, 2, A * A + 4 * B)

    def const(self, x) -> "_FieldElement":
        """The rational x as an element of this element's field."""
        if isinstance(x, _FieldElement):
            return x
        x = Fraction(x)
        return _FieldElement(x.numerator, 0, x.denominator, self.D)

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __add__(self, other):
        o = self.const(other)
        return _FieldElement(self.u * o.n + o.u * self.n,
                             self.v * o.n + o.v * self.n, self.n * o.n, self.D)

    def __sub__(self, other):
        o = self.const(other)
        return _FieldElement(self.u * o.n - o.u * self.n,
                             self.v * o.n - o.v * self.n, self.n * o.n, self.D)

    def __mul__(self, other):
        o = self.const(other)
        return _FieldElement(self.u * o.u + self.v * o.v * self.D,
                             self.u * o.v + self.v * o.u, self.n * o.n, self.D)

    def inverse(self):
        """n / (u + v*sqrt(D)) = n*(u - v*sqrt(D)) / (u**2 - v**2*D)."""
        norm = self.u * self.u - self.v * self.v * self.D
        if norm == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return _FieldElement(self.n * self.u, -self.n * self.v, norm, self.D)

    def __pow__(self, k: int):
        """Square-and-multiply; a negative k raises the inverse."""
        x = self if k >= 0 else self.inverse()
        k = abs(k)
        out = self.const(1)
        while k:
            if k & 1:
                out = out * x
            k >>= 1
            if k:
                x = x * x
        return out

    # -- exact order structure -----------------------------------------

    def sign(self) -> int:
        su = (self.u > 0) - (self.u < 0)
        sv = (self.v > 0) - (self.v < 0)
        if su * sv >= 0:
            return su or sv
        # opposite signs: the term with the larger square wins
        d = self.u * self.u - self.v * self.v * self.D
        return su * ((d > 0) - (d < 0))

    def floor(self) -> int:
        # floor((u + t)/n) = floor((u + floor(t))/n) for integers u, n > 0
        s = self.v * self.v * self.D
        r = math.isqrt(s)  # floor(|v|*sqrt(D))
        if self.v < 0:
            r = -r - (r * r != s)
        return (self.u + r) // self.n

    def log_abs(self) -> float:
        """ln|self| for nonzero self at any magnitude; an estimate only.

        64 guard bits make the rounding of isqrt negligible.
        """
        u, v = self.u << 64, self.v << 64
        s = v * v * self.D
        w = math.isqrt(s)
        if u * v >= 0:
            top = math.log(abs(u) + w)
        else:  # |u + v*sqrt(D)| = |u**2 - v**2*D| / (|u| + |v|*sqrt(D))
            top = math.log(abs(u * u - s)) - math.log(abs(u) + w)
        return top - math.log(self.n) - 64 * math.log(2)


def _descale(x: _FieldElement, beta: _FieldElement, lower, upper):
    """(x * beta**-ell, ell) for the least ell that puts x in [lower, upper).

    ell is positive to scale a large x down and negative to scale a small
    one up, so the first digit of the expansion is never 0.  An x whose
    sign the window cannot reach is refused at once.
    """
    s = x.sign()
    edge = upper if s > 0 else lower
    if s * edge.sign() <= 0:
        raise NotInWindowError(
            "input cannot be scaled into the digit window: its sign never "
            "meets the window")

    def inside(y):  # y on the zero side of the window's far edge
        d = (y - edge).sign()
        return d < 0 if s > 0 else d >= 0

    # The float estimate only picks a candidate; exact steps finish it.
    ell = math.ceil((x.log_abs() - edge.log_abs()) / beta.log_abs())
    y = x * beta ** -ell
    inv = beta.inverse()
    while not inside(y):
        y, ell = y * inv, ell + 1
    while inside(y * beta):
        y, ell = y * beta, ell - 1
    return y, ell


def _expand(x, beta: _FieldElement, max_digits: int, lower) -> Expansion:
    """The beta-transformation on the unit window [lower, lower + 1).

    x is scaled into the window, and each digit of the remainder y is
    floor(beta*y - lower), leaving beta*y - digit in the window again.
    """
    x, lower = beta.const(x), beta.const(lower)
    if x.is_zero:
        return Expansion(DigitString.zero(), True)
    y, ell = _descale(x, beta, lower, lower + 1)
    digits = []
    exact = False
    for _ in range(max_digits):
        z = y * beta
        d = (z - lower).floor()
        digits.append(d)
        y = z - d
        if y.is_zero:
            exact = True
            break
    ds = normalize(DigitString(tuple(digits), ell - len(digits)))
    return Expansion(ds, exact)


def _require_real(base: BaseSpec, what: str) -> None:
    if not base.is_real_gt1:
        raise UnsupportedBaseError(
            f"{what} expansion needs a real base > 1, got {base.describe()}")


def greedy_expansion(x, base: BaseSpec, max_digits: int = 64) -> Expansion:
    """Most-significant-first expansion with digit floor(beta * remainder).

    Requires a real base > 1 and x >= 0.  Digits land in {0..ceil(beta)-1}.
    """
    _require_real(base, "greedy")
    x = Fraction(x)
    if x < 0:
        raise NegativeInputError("greedy expansion requires x >= 0")
    return _expand(x, _FieldElement.beta(base), max_digits, 0)


def tm_expansion(x, m: int, base: BaseSpec, max_digits: int = 64) -> Expansion:
    """Expansion over the shifted alphabet {m .. m + ceil(beta) - 1}.

    The remainder window is [m/(beta-1), m/(beta-1) + 1).  With m = 0
    this is exactly the greedy expansion.
    """
    _require_real(base, "windowed")
    width = base.ceil_beta()
    if not (m <= 0 <= m + width - 1):
        raise NotInWindowError(
            f"alphabet {{{m}..{m + width - 1}}} must contain 0", m=m)
    beta = _FieldElement.beta(base)
    res = _expand(x, beta, max_digits, (beta - 1).inverse() * m)
    assert all(m <= d < m + width for d in res.string.digits), (res, m)
    return res


def symmetric_expansion(x, base: BaseSpec, max_digits: int = 64) -> Expansion:
    """Nearest-integer expansion on the window [-1/2, 1/2).

    Digits are round-half-up of beta*remainder and lie in the symmetric
    set of integers below (beta+1)/2 in absolute value.
    """
    _require_real(base, "symmetric")
    return _expand(x, _FieldElement.beta(base), max_digits, Fraction(-1, 2))


def euclid_expansion(n: int, base: BaseSpec) -> DigitString:
    """Expansion of an integer by repeated division with remainder.

    For beta = +-a/b (integer bases are the b = 1 case): peel the digit
    n mod a, then continue with -+b*(n - d)/a.  Positive bases require
    n >= 0; negative bases accept any integer.  Always exact, digits in
    {0..a-1}, least significant digit at exponent 0.
    """
    ratio = base.integer_ratio
    if ratio is None:
        raise UnsupportedBaseError(
            f"integer expansion needs an integer or rational base, got "
            f"{base.describe()}")
    a, b, neg = ratio
    n = int(n)
    if n < 0 and not neg:
        raise NegativeInputError(
            "positive bases cannot represent negative integers with "
            "nonnegative digits")
    digits_lsd = []
    while n != 0:
        d = n % a
        digits_lsd.append(d)
        n = b * (n - d) // a
        if neg:
            n = -n
    return normalize(DigitString(tuple(reversed(digits_lsd)), 0))


def value_bounds(ds: DigitString, base: BaseSpec) -> tuple:
    """Floats (lo, hi) with lo <= value of ``ds`` <= hi, certified.

    The value x = (u + v*sqrt(D))/n is exact in Q(beta), by Horner's
    rule.  A nonzero x has |x| >= 1/(n*(|u| + |v|*sqrt(D))), so its exact
    floor at 2**-k, k 64 bits past that scale, brackets it to a relative
    width below 2**-63.  Each end then rounds outward: past the float
    range, to the largest float on the near side, to infinity on the far.
    """
    beta = _FieldElement.beta(base)
    x = beta.const(0)
    for d in ds.digits:
        x = x * beta + d
    x = x * beta ** ds.lsd_exponent
    k = 64 + x.n.bit_length() + max(x.u.bit_length(),
                                     (x.v * x.v * x.D).bit_length())
    y = x * 2 ** k  # x lies in [f, f + 1] / 2**k, f = floor(y)
    f = y.floor()
    lo, hi = Fraction(f, 2 ** k), Fraction(f + (not (y - f).is_zero), 2 ** k)
    return _outward(lo, -math.inf), _outward(hi, math.inf)


def _outward(q: Fraction, toward: float) -> float:
    """The float nearest to q on the side of ``toward`` (+-inf)."""
    try:
        f = float(q)  # correctly rounded to nearest
    except OverflowError:  # the largest float of q's sign
        f = math.nextafter(math.inf if q > 0 else -math.inf, 0.0)
    if (f < q) if toward > 0 else (f > q):
        f = math.nextafter(f, toward)
    return f
