"""Core domain types: bases, alphabets, digit strings, numeration systems.

A *base* is an algebraic number beta with |beta| > 1, described by the kind
of its defining polynomial and small integer parameters.  A *digit string*
is a finite window of integer digits attached to a least-significant
exponent; the represented value is ``sum d_j beta^j`` over the support.
All arithmetic on these types is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
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

ALL_KINDS = (
    INTEGER, NEGATIVE_INTEGER, ROOT, NEGATIVE_ROOT,
    PISOT_MINUS, PISOT_PLUS, RATIONAL_POS, RATIONAL_NEG,
)


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

    # -- defining polynomial ------------------------------------------

    @property
    def defining_poly(self) -> tuple:
        """Integer coefficients, most significant first.

        The represented relation is ``poly(beta) = 0``.  For rational
        kinds the polynomial is not monic (``b*X -+ a``).
        """
        k = self.kind
        if k == INTEGER:
            return (1, -self.param("b"))
        if k == NEGATIVE_INTEGER:
            return (1, self.param("b"))
        if k == ROOT:
            b, deg = self.param("b"), self.param("k")
            return (1,) + (0,) * (deg - 1) + (-b,)
        if k == NEGATIVE_ROOT:
            b, deg = self.param("b"), self.param("k")
            return (1,) + (0,) * (deg - 1) + (b,)
        if k == PISOT_MINUS:
            return (1, -self.param("a"), 1)
        if k == PISOT_PLUS:
            return (1, -self.param("a"), -1)
        if k == RATIONAL_POS:
            return (self.param("b"), -self.param("a"))
        if k == RATIONAL_NEG:
            return (self.param("b"), self.param("a"))
        raise UnsupportedBaseError(f"unknown base kind {k!r}")

    @property
    def degree(self) -> int:
        return len(self.defining_poly) - 1

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
        k = self.kind
        if k == INTEGER:
            return Fraction(self.param("b"))
        if k == NEGATIVE_INTEGER:
            return Fraction(-self.param("b"))
        if k == RATIONAL_POS:
            return Fraction(self.param("a"), self.param("b"))
        if k == RATIONAL_NEG:
            return Fraction(-self.param("a"), self.param("b"))
        if k == ROOT:
            b, deg = self.param("b"), self.param("k")
            n = _integer_root_floor(b, deg)
            return Fraction(n) if n ** deg == b else None
        if k == NEGATIVE_ROOT and self.param("k") == 1:
            return Fraction(-self.param("b"))
        return None

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
        if self.kind == PISOT_MINUS:
            return (self.param("a"), -1)
        if self.kind == PISOT_PLUS:
            return (self.param("a"), 1)
        if self.kind == ROOT and self.param("k") == 2:
            return (0, self.param("b"))
        return None

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


# -- base factories ---------------------------------------------------


def _check_b(b: int) -> None:
    if not isinstance(b, int) or b < 2:
        raise ParameterRangeError(f"parameter b must be an integer >= 2, got {b!r}")


def integer_base(b: int) -> BaseSpec:
    _check_b(b)
    return BaseSpec(INTEGER, (("b", b),))


def negative_integer_base(b: int) -> BaseSpec:
    _check_b(b)
    return BaseSpec(NEGATIVE_INTEGER, (("b", b),))


def root_base(b: int, k: int) -> BaseSpec:
    _check_b(b)
    if not isinstance(k, int) or k < 1:
        raise ParameterRangeError(f"parameter k must be an integer >= 1, got {k!r}")
    return BaseSpec(ROOT, (("b", b), ("k", k)))


def negative_root_base(b: int, k: int) -> BaseSpec:
    _check_b(b)
    if not isinstance(k, int) or k < 1:
        raise ParameterRangeError(f"parameter k must be an integer >= 1, got {k!r}")
    return BaseSpec(NEGATIVE_ROOT, (("b", b), ("k", k)))


def pisot_minus_base(a: int) -> BaseSpec:
    if not isinstance(a, int) or a < 3:
        raise ParameterRangeError(f"parameter a must be an integer >= 3, got {a!r}")
    return BaseSpec(PISOT_MINUS, (("a", a),))


def pisot_plus_base(a: int) -> BaseSpec:
    if not isinstance(a, int) or a < 2:
        raise ParameterRangeError(f"parameter a must be an integer >= 2, got {a!r}")
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

    ``digits[i]`` sits at exponent ``msd_exponent - i``.  The zero string
    is the empty digit tuple (canonically with ``lsd_exponent == 0``).
    Instances are not automatically normalized; see :func:`normalize`.
    """

    digits: tuple
    lsd_exponent: int = 0

    @classmethod
    def zero(cls) -> "DigitString":
        return cls((), 0)

    @classmethod
    def from_digits(cls, digits, lsd_exponent: int = 0) -> "DigitString":
        return cls(tuple(int(d) for d in digits), lsd_exponent)

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
    digits = list(ds.digits)
    lsd = ds.lsd_exponent
    while digits and digits[-1] == 0:
        digits.pop()
        lsd += 1
    while digits and digits[0] == 0:
        digits.pop(0)
    if not digits:
        return DigitString.zero()
    return DigitString(tuple(digits), lsd)


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
    digits = tuple(x.digit_at(e) + y.digit_at(e) for e in range(msd, lsd - 1, -1))
    return DigitString(digits, lsd)


def digitwise_negate(x: DigitString) -> DigitString:
    return DigitString(tuple(-d for d in x.digits), x.lsd_exponent)


# -- numeration systems -----------------------------------------------


@dataclass(frozen=True)
class NumerationSystem:
    """A base together with a digit alphabet.

    ``meets_lower_bound`` is informational: whether the alphabet size
    reaches the applicable minimality lower bound for parallel addition.
    """

    base: BaseSpec
    alphabet: Alphabet
    meets_lower_bound: Optional[bool] = None

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "alphabet": self.alphabet.to_json(),
            "meets_lower_bound": self.meets_lower_bound,
        }


def make_system(base: BaseSpec, alphabet: Alphabet) -> NumerationSystem:
    """Validate and bundle base + alphabet.

    The lower-bound flag is best-effort: None when no bound applies to
    the base kind.
    """
    from . import bounds  # deferred: bounds imports core

    try:
        minimal = bounds.minimal_alphabet_size(base)
    except Exception:
        minimal = None
    flag = None if minimal is None else alphabet.size >= minimal
    return NumerationSystem(base, alphabet, flag)
