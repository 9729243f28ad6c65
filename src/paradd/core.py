"""Core domain types: bases, alphabets, digit strings, numeration systems.

A *base* is an algebraic number beta with |beta| > 1, described by a kind
and small integer parameters, which fix its minimal polynomial.  A *digit
string* is a finite window of integer digits attached to a
least-significant exponent; the represented value is ``sum d_j beta^j``
over the support.  All arithmetic on these types is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterator, Optional

from .errors import (
    AlphabetError,
    DigitStringSyntaxError,
    NonCoprimeError,
    ParameterRangeError,
    UnsupportedBaseError,
)

# Kind tags.  Parameter conventions:
#   integer            b >= 2          beta = b
#   negative-integer   b >= 2          beta = -b
#   root               b >= 2, k >= 1  beta = b**(1/k)      (real positive root)
#   negative-root      b >= 2, k >= 1  beta = b**(1/k) * exp(i*pi/k)
#   pisot-minus        a >= 3          beta^2 = a*beta - 1
#   pisot-plus         a >= 2          beta^2 = a*beta + 1
#   rational-pos       a > b >= 1      beta = a/b, gcd(a, b) = 1
#   rational-neg       a > b >= 1      beta = -a/b, gcd(a, b) = 1
INTEGER = "integer"
NEGATIVE_INTEGER = "negative-integer"
ROOT = "root"
NEGATIVE_ROOT = "negative-root"
PISOT_MINUS = "pisot-minus"
PISOT_PLUS = "pisot-plus"
RATIONAL_POS = "rational-pos"
RATIONAL_NEG = "rational-neg"


@dataclass(frozen=True)
class BaseSpec:
    """An exactly represented base.

    ``params`` is a sorted tuple of (name, value) pairs so instances stay
    hashable; use :meth:`param` or :attr:`params_dict` for access.
    """

    kind: str
    params: tuple

    def param(self, name: str) -> int:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    # -- minimal polynomial -------------------------------------------

    @property
    def minimal_terms(self) -> tuple:
        """Nonzero terms of :attr:`minimal_poly` as (exponent, coefficient).

        Highest exponent first.  Every minimal polynomial here has at most
        three terms, so this stays small for root bases of any degree.
        """
        k = self.kind
        if k == NEGATIVE_ROOT:
            b, deg = self.param("b"), self.param("k")
            if (b, deg) == (4, 4):
                return ((2, 1), (1, 2), (0, 2))  # the catalog's -1 + i
            # negative_root_base refuses every other reducible X^k + b
            return ((deg, 1), (0, b))
        if k == ROOT:
            b, deg = self.param("b"), self.param("k")
            ok, reduced = minimal_form(b, deg)
            if not ok:
                b, deg = reduced
            return ((deg, 1), (0, -b))
        if k in (PISOT_MINUS, PISOT_PLUS):
            return ((2, 1), (1, -self.param("a")),
                    (0, 1 if k == PISOT_MINUS else -1))
        a, b, neg = self.integer_ratio
        return ((1, b), (0, a if neg else -a))

    @property
    def minimal_poly(self) -> tuple:
        """Integer coefficients of beta's minimal polynomial, msd first.

        The represented relation is ``poly(beta) = 0``, and no polynomial
        of lower degree holds it (Capelli's criterion for X^k -+ b).  For
        rational kinds the polynomial is not monic (``b*X -+ a``).
        """
        terms = self.minimal_terms
        coeffs = [0] * (terms[0][0] + 1)
        for e, c in terms:
            coeffs[-1 - e] = c
        return tuple(coeffs)

    @property
    def degree(self) -> int:
        return self.minimal_terms[0][0]

    # -- exact real data ----------------------------------------------

    @property
    def is_real(self) -> bool:
        if self.kind == NEGATIVE_ROOT:
            return self.param("k") == 1
        return True

    @property
    def is_real_gt1(self) -> bool:
        """True when beta is real and beta > 1."""
        return self.kind in (INTEGER, ROOT, PISOT_MINUS, PISOT_PLUS, RATIONAL_POS)

    @property
    def beta_fraction(self) -> Optional[Fraction]:
        """Exact value of beta when beta is rational, else None."""
        terms = self.minimal_terms
        if terms[0][0] != 1:
            return None
        (_, b), (_, c) = terms
        return Fraction(-c, b)

    @property
    def integer_ratio(self) -> Optional[tuple]:
        """(a, b, neg) with beta = -a/b when neg, else a/b.

        Only the integer and rational kinds have one; others give None.
        """
        k = self.kind
        if k in (INTEGER, NEGATIVE_INTEGER):
            return self.param("b"), 1, k == NEGATIVE_INTEGER
        if k in (RATIONAL_POS, RATIONAL_NEG):
            return self.param("a"), self.param("b"), k == RATIONAL_NEG
        return None

    @property
    def quadratic_coeffs(self) -> Optional[tuple]:
        """(A, B) with beta^2 = A*beta + B, for real quadratic bases."""
        if not self.is_real or self.degree != 2:
            return None
        _, p, q = self.minimal_poly
        return (-p, -q)

    def ceil_beta(self) -> int:
        """Exact ceiling of beta for real bases with beta > 1."""
        frac = self.beta_fraction
        if frac is not None:
            return -((-frac.numerator) // frac.denominator)
        if self.kind == PISOT_MINUS:
            return self.param("a")
        if self.kind == PISOT_PLUS:
            return self.param("a") + 1
        if self.kind == ROOT:  # perfect powers took the beta_fraction branch
            return _integer_root_floor(self.param("b"), self.param("k")) + 1
        raise UnsupportedBaseError(
            f"base of kind {self.kind!r} has no real ceiling", kind=self.kind)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": self.params_dict}

    @classmethod
    def from_json(cls, data: dict) -> "BaseSpec":
        return make_base(data["kind"], **data["params"])

    def describe(self) -> str:
        k, p = self.kind, self.params_dict
        if k == INTEGER:
            return str(p["b"])
        if k == NEGATIVE_INTEGER:
            return str(-p["b"])
        if k == ROOT:
            return f"{p['b']}^(1/{p['k']})"
        if k == NEGATIVE_ROOT:
            return f"{p['b']}^(1/{p['k']})*exp(i*pi/{p['k']})"
        if k == PISOT_MINUS:
            return f"root of x^2-{p['a']}x+1"
        if k == PISOT_PLUS:
            return f"root of x^2-{p['a']}x-1"
        if k == RATIONAL_POS:
            return f"{p['a']}/{p['b']}"
        return f"-{p['a']}/{p['b']}"


def _integer_root_floor(b: int, k: int) -> int:
    """Largest n with n**k <= b (exact integer arithmetic)."""
    if k == 1:
        return b
    if k == 2:
        return math.isqrt(b)
    if b.bit_length() <= k:  # b < 2**k
        return 1
    # Integer Newton from above: the iterates fall until they reach the root.
    n = 1 << -(-b.bit_length() // k)
    while True:
        m = ((k - 1) * n + b // n ** (k - 1)) // k
        if m >= n:
            return n
        n = m


def _is_power(b: int, e: int) -> bool:
    return _integer_root_floor(b, e) ** e == b


def minimal_form(b: int, k: int):
    """Is beta = b**(1/k) already written with the smallest possible b?

    If b = c**e for some divisor e >= 2 of k, the same beta is
    c**(1/(k/e)).  Returns (True, None), or (False, (c, k')) with the
    fully reduced form, where X^k' - c is irreducible (Capelli).  Only
    e with 2**e <= b can have a root c >= 2, so at most log2(b)
    exponents are tried; a stripped root needs no smaller e again.
    """
    c, kk = b, k
    e = 2
    while e <= kk and 1 << e <= c:
        if kk % e == 0 and _is_power(c, e):
            c, kk = _integer_root_floor(c, e), kk // e
        else:
            e += 1
    return (True, None) if kk == k else (False, (c, kk))


def _negative_root_reducible(b: int, k: int) -> bool:
    """Capelli: X^k + b is reducible over Q iff b is a p-th power for an
    odd prime p dividing k, or 4 divides k and b = 4*c**4."""
    if any(k % e == 0 and _is_power(b, e)
           for e in range(3, min(k, b.bit_length()) + 1, 2)):
        return True
    return k % 4 == 0 and b % 4 == 0 and _is_power(b // 4, 4)


# -- base factories ---------------------------------------------------


def _check_int(name: str, value, least: int) -> None:
    if not isinstance(value, int) or value < least:
        raise ParameterRangeError(
            f"parameter {name} must be an integer >= {least}, got {value!r}")


def integer_base(b: int) -> BaseSpec:
    _check_int("b", b, 2)
    return BaseSpec(INTEGER, (("b", b),))


def negative_integer_base(b: int) -> BaseSpec:
    _check_int("b", b, 2)
    return BaseSpec(NEGATIVE_INTEGER, (("b", b),))


def root_base(b: int, k: int) -> BaseSpec:
    _check_int("b", b, 2)
    _check_int("k", k, 1)
    return BaseSpec(ROOT, (("b", b), ("k", k)))


def negative_root_base(b: int, k: int) -> BaseSpec:
    _check_int("b", b, 2)
    _check_int("k", k, 1)
    if (b, k) != (4, 4) and _negative_root_reducible(b, k):
        raise UnsupportedBaseError(
            f"X^{k} + {b} is reducible, so {b}**(1/{k})*exp(i*pi/{k}) has "
            "no supported minimal polynomial", kind=NEGATIVE_ROOT)
    return BaseSpec(NEGATIVE_ROOT, (("b", b), ("k", k)))


def pisot_minus_base(a: int) -> BaseSpec:
    _check_int("a", a, 3)
    return BaseSpec(PISOT_MINUS, (("a", a),))


def pisot_plus_base(a: int) -> BaseSpec:
    _check_int("a", a, 2)
    return BaseSpec(PISOT_PLUS, (("a", a),))


def _check_rational(a: int, b: int) -> None:
    if not (isinstance(a, int) and isinstance(b, int)) or b < 1 or a <= b:
        raise ParameterRangeError(
            f"rational base needs integers a > b >= 1, got a={a!r}, b={b!r}")
    if math.gcd(a, b) != 1:
        raise NonCoprimeError(f"rational base parameters must be coprime: {a}/{b}")


def rational_base(a: int, b: int) -> BaseSpec:
    _check_rational(a, b)
    return BaseSpec(RATIONAL_POS, (("a", a), ("b", b)))


def negative_rational_base(a: int, b: int) -> BaseSpec:
    _check_rational(a, b)
    return BaseSpec(RATIONAL_NEG, (("a", a), ("b", b)))


_FACTORIES = {
    INTEGER: integer_base,
    NEGATIVE_INTEGER: negative_integer_base,
    ROOT: root_base,
    NEGATIVE_ROOT: negative_root_base,
    PISOT_MINUS: pisot_minus_base,
    PISOT_PLUS: pisot_plus_base,
    RATIONAL_POS: rational_base,
    RATIONAL_NEG: negative_rational_base,
}


def make_base(kind: str, **params) -> BaseSpec:
    try:
        factory = _FACTORIES[kind]
    except KeyError:
        raise UnsupportedBaseError(f"unknown base kind {kind!r}", kind=kind)
    return factory(**params)


# -- alphabets --------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """Contiguous integer digit set {m, ..., M} with m <= 0 <= M."""

    m: int
    M: int

    def __post_init__(self):
        if not (self.m <= 0 <= self.M):
            raise AlphabetError(
                f"alphabet {{{self.m}..{self.M}}} must contain 0")
        if self.size < 2:
            raise AlphabetError("alphabet must have at least 2 digits")

    @property
    def size(self) -> int:
        return self.M - self.m + 1

    def __contains__(self, d: int) -> bool:
        return self.m <= d <= self.M

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.m, self.M + 1))

    def shifted(self, h: int) -> "Alphabet":
        return Alphabet(self.m - h, self.M - h)

    def negated(self) -> "Alphabet":
        return Alphabet(-self.M, -self.m)

    def to_json(self) -> dict:
        return {"m": self.m, "M": self.M}

    @classmethod
    def from_json(cls, data: dict) -> "Alphabet":
        return cls(data["m"], data["M"])

    def __str__(self) -> str:
        return f"{{{self.m}..{self.M}}}"


# -- digit strings ----------------------------------------------------


@dataclass(frozen=True)
class DigitString:
    """Finite digit block, most significant digit first.

    ``digits[i]`` sits at exponent ``msd_exponent - i``.  The digits may
    be any integers, inside an alphabet or not: they are the coefficients
    of a Laurent polynomial in beta, which ``algebra`` reduces exactly.
    The zero string is the empty digit tuple (canonically with
    ``lsd_exponent == 0``).  Instances are not automatically normalized;
    see :func:`normalize`.
    """

    digits: tuple
    lsd_exponent: int = 0

    @classmethod
    def zero(cls) -> "DigitString":
        return cls((), 0)

    @property
    def is_zero(self) -> bool:
        return all(d == 0 for d in self.digits)

    @property
    def msd_exponent(self) -> int:
        return self.lsd_exponent + len(self.digits) - 1

    def digit_at(self, exponent: int) -> int:
        if self.lsd_exponent <= exponent <= self.msd_exponent:
            return self.digits[self.msd_exponent - exponent]
        return 0

    def shifted(self, delta: int) -> "DigitString":
        """Multiply the value by beta**delta (move the radix point)."""
        if not self.digits:
            return self
        return DigitString(self.digits, self.lsd_exponent + delta)

    def to_json(self) -> dict:
        return {"lsd_exponent": self.lsd_exponent, "digits": list(self.digits)}

    @classmethod
    def from_json(cls, data: dict) -> "DigitString":
        return cls(tuple(int(d) for d in data["digits"]),
                   int(data["lsd_exponent"]))

    def __str__(self) -> str:
        return format_digit_string(self)


def normalize(ds: DigitString) -> DigitString:
    """Strip leading/trailing zero digits; canonical zero is empty at 0."""
    digits, first, last = ds.digits, 0, len(ds.digits)
    while last and digits[last - 1] == 0:
        last -= 1
    while first < last and digits[first] == 0:
        first += 1
    if first == last:
        return DigitString.zero()
    return DigitString(tuple(digits[first:last]),
                       ds.lsd_exponent + len(digits) - last)


_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[+-]?\d+\Z")


def parse_digit_string(text: str) -> DigitString:
    """Parse the whitespace-separated digit grammar.

    Tokens are signed decimal integers with exactly one ``.`` radix mark
    among them; digits left of the mark occupy exponents n-1..0, digits
    right of it occupy -1..-s.  The result is normalized, so parse is a
    left inverse of :func:`format_digit_string`.
    """
    left: list = []
    right: list = []
    seen_dot = False
    dot_offset = None
    any_token = False
    for match in _TOKEN.finditer(text):
        any_token = True
        tok = match.group()
        if tok == ".":
            if seen_dot:
                raise DigitStringSyntaxError(
                    "multiple radix marks", offset=match.start())
            seen_dot = True
            dot_offset = match.start()
            continue
        if not _INT.match(tok):
            raise DigitStringSyntaxError(
                f"invalid token {tok!r}", offset=match.start())
        (right if seen_dot else left).append(int(tok))
    if not any_token:
        raise DigitStringSyntaxError("empty digit string", offset=0)
    if not seen_dot:
        raise DigitStringSyntaxError(
            "missing radix mark '.'", offset=len(text))
    digits = left + right
    if not digits:
        return DigitString.zero()
    return normalize(DigitString(tuple(digits), -len(right)))


def format_digit_string(ds: DigitString) -> str:
    """Render in the parseable grammar (normalizing first).

    Digits between the support and the radix point are zero-filled, so
    the radix mark is always adjacent to exponents 0 and -1.
    """
    ds = normalize(ds)
    if not ds.digits:
        return "."
    tokens = []
    if ds.msd_exponent >= 0:
        for e in range(ds.msd_exponent, -1, -1):
            tokens.append(str(ds.digit_at(e)))
    tokens.append(".")
    if ds.lsd_exponent < 0:
        for e in range(-1, ds.lsd_exponent - 1, -1):
            tokens.append(str(ds.digit_at(e)))
    return " ".join(tokens)


def digitwise_sum(x: DigitString, y: DigitString) -> DigitString:
    """Digit-by-digit sum over the union of supports (no carrying)."""
    if not x.digits:
        return y
    if not y.digits:
        return x
    lsd = min(x.lsd_exponent, y.lsd_exponent)
    msd = max(x.msd_exponent, y.msd_exponent)
    digits = [0] * (msd - lsd + 1)
    for s, i in ((x, msd - x.msd_exponent), (y, msd - y.msd_exponent)):
        digits[i:i + len(s.digits)] = map(add, digits[i:], s.digits)
    return DigitString(tuple(digits), lsd)


def digitwise_negate(x: DigitString) -> DigitString:
    return DigitString(tuple(-d for d in x.digits), x.lsd_exponent)


# -- numeration systems -----------------------------------------------


@dataclass(frozen=True)
class NumerationSystem:
    """A base together with a digit alphabet.

    ``meets_lower_bound`` is informational: whether the alphabet size
    reaches the minimality lower bound for parallel addition.
    """

    base: BaseSpec
    alphabet: Alphabet
    meets_lower_bound: bool

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "alphabet": self.alphabet.to_json(),
            "meets_lower_bound": self.meets_lower_bound,
        }


def make_system(base: BaseSpec, alphabet: Alphabet) -> NumerationSystem:
    """Validate and bundle base + alphabet, with the lower-bound flag."""
    from . import bounds  # deferred: bounds imports core

    flag = alphabet.size >= bounds.minimal_alphabet_size(base)
    return NumerationSystem(base, alphabet, flag)
