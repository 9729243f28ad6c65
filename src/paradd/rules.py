"""Catalog of digit-set conversion rules, one family per base kind.

Every rule here eliminates the top digit of an alphabet one step too
large: it converts strings over {0..K} to strings over {0..K-1}, where
K+1 is the minimal alphabet size for the base.  Mixed-sign alphabets are
handled by translating these rules to shifted alphabets (when the shift
amount is a fixed letter) and by the mirrored rules that eliminate the
bottom digit instead; see :func:`rules_for_alphabet`.

Each selector compares digits with base-dependent thresholds, its
``cuts``, so its table holds one entry per window of digit classes: at
most 4**5 = 1 024 (pisot-), whatever the parameter.  The root-base rules
are the integer-base rules at stride k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from .core import (
    Alphabet, BaseSpec,
    INTEGER, NEGATIVE_INTEGER, NEGATIVE_ROOT, PISOT_MINUS, PISOT_PLUS,
    RATIONAL_NEG, RATIONAL_POS, ROOT,
    negative_integer_base, negative_rational_base, negative_root_base,
    pisot_minus_base, pisot_plus_base, rational_base, root_base,
)
from .errors import (
    AlphabetTooSmallError,
    ParameterRangeError,
    UnsupportedAlphabetError,
    UnsupportedBaseError,
)
from .local import (
    CarryRule, LocalRule, derive_local_rule, fixed_letters, negate_rule,
    shift_alphabet,
)


# --- negative integer base ---------------------------------------------

@lru_cache(maxsize=None)
def gde_negative_integer(b: int) -> LocalRule:
    """Eliminate digit b+1 over base -b: {0..b+1} -> {0..b}, (t,r) = (0,2).

    A unit carry removes b at position j and 1 at position j+1 (the
    pattern b + beta is 0 since beta = -b); the selector looks one digit
    back to decide between pushing up and borrowing.
    """
    def q(sub, _b=b):
        zj, zj1 = sub
        if zj == _b + 1 or (zj == _b and zj1 == 0):
            return 1
        if zj == 0 and zj1 >= _b:
            return -1
        return 0

    carry = CarryRule(q, 0, 1, ((0, -b), (1, -1)), name=f"gde(-{b})",
                      cuts=(1, b, b + 1))
    return derive_local_rule(carry, negative_integer_base(b),
                             Alphabet(0, b + 1), Alphabet(0, b))


# --- root bases ----------------------------------------------------------

@lru_cache(maxsize=None)
def gde_root(b: int, k: int, negative: bool) -> LocalRule:
    """Eliminate digit b+1 over beta with beta**k = +-b.

    {0..b+1} -> {0..b}, (t,r) = (0, 2k): the integer-base rule for -b
    (``gde_negative_integer``) or +b (k = 1) at stride k, every
    interaction k positions apart (digit positions split into k
    independent residue classes mod k).
    """
    if negative or k > 1:
        inner = gde_negative_integer(b) if negative else gde_root(b, 1, False)
        carry = replace(inner.carry, stride=k, name=f"gde(root "
                        f"{'-' if negative else ''}{b}, k={k})")
        return derive_local_rule(
            carry, (negative_root_base if negative else root_base)(b, k),
            inner.input_alphabet, inner.output_alphabet)

    def q(sub, _b=b):
        zj, zj1 = sub
        return 1 if zj == _b + 1 or (zj == _b and zj1 >= _b) else 0

    carry = CarryRule(q, 0, 1, ((0, -b), (1, 1)), name=f"gde(root {b}, k=1)",
                      cuts=(b, b + 1))
    return derive_local_rule(carry, root_base(b, 1), Alphabet(0, b + 1),
                             Alphabet(0, b))


# --- quadratic Pisot units -----------------------------------------------

@lru_cache(maxsize=None)
def doubling_reducer(a: int) -> LocalRule:
    """First stage for beta**2 = a*beta - 1: {0..2a-2} -> {0..a}, (t,r)=(2,2).

    A unit carry at j subtracts a there and adds 1 at both neighbors
    (a*beta = beta^2 + 1).  This alone cannot reach the minimal alphabet;
    it compresses doubled digit sums far enough for the eliminator stage.
    """
    if a < 3:
        raise ParameterRangeError(f"need a >= 3, got {a}")

    def q(sub, _a=a):
        zp, zj, zm = sub
        if zj >= _a:
            return 1
        if zj == _a - 1 and zp >= _a and zm >= _a:
            return 1
        return 0

    carry = CarryRule(q, 1, 1, ((0, -a), (-1, 1), (1, 1)),
                      name=f"doubling reducer (a={a})", cuts=(a - 1, a))
    return derive_local_rule(carry, pisot_minus_base(a),
                             Alphabet(0, 2 * a - 2), Alphabet(0, a))


@lru_cache(maxsize=None)
def gde_pisot_minus(a: int) -> LocalRule:
    """Eliminate digit a over beta**2 = a*beta - 1: {0..a} -> {0..a-1}.

    (t, r) = (3, 3): the selector needs two digits of lookahead/lookback
    to decide whether a digit a-2 will be flooded by its neighbors'
    carries.
    """
    if a < 3:
        raise ParameterRangeError(f"need a >= 3, got {a}")

    def q(sub, _a=a):
        z2p, zp, zj, zm, z2m = sub
        if zj == _a:
            return 1
        if zj == _a - 1:
            return 1 if (zp >= _a - 1 or zm >= _a - 1) else 0
        if zj == _a - 2:
            if zp == _a and zm == _a:
                return 1
            if zp == _a and zm == _a - 1 and z2m >= _a - 1:
                return 1
            if zm == _a and zp == _a - 1 and z2p >= _a - 1:
                return 1
            if (zp == _a - 1 and zm == _a - 1
                    and z2p >= _a - 1 and z2m >= _a - 1):
                return 1
        return 0

    carry = CarryRule(q, 2, 2, ((0, -a), (-1, 1), (1, 1)),
                      name=f"gde(pisot- a={a})", cuts=(a - 2, a - 1, a))
    return derive_local_rule(carry, pisot_minus_base(a),
                             Alphabet(0, a), Alphabet(0, a - 1))


@lru_cache(maxsize=None)
def gde_pisot_plus(a: int) -> LocalRule:
    """Eliminate digit a+2 over beta**2 = a*beta + 1: {0..a+2} -> {0..a+1}.

    (t, r) = (2, 2).  A unit carry at j subtracts a at j and 1 at j-1 and
    adds 1 at j+1: the pattern beta - a - 1/beta vanishes since
    beta^2 = a*beta + 1.
    """
    if a < 2:
        raise ParameterRangeError(f"need a >= 2, got {a}")

    def q(sub, _a=a):
        zp, zj, zm = sub
        if zj == _a + 2:
            return 1
        if zj == _a + 1 and (zp == 0 or zm >= _a + 1):
            return 1
        if zj == _a and zp == 0 and zm >= _a + 1:
            return 1
        if zj == 0 and zp >= _a + 1 and zm <= _a:
            return -1
        return 0

    carry = CarryRule(q, 1, 1, ((0, -a), (-1, -1), (1, 1)),
                      name=f"gde(pisot+ a={a})", cuts=(1, a, a + 1, a + 2))
    return derive_local_rule(carry, pisot_plus_base(a),
                             Alphabet(0, a + 2), Alphabet(0, a + 1))


# --- rational bases -------------------------------------------------------

@lru_cache(maxsize=None)
def gde_rational_pos(a: int, b: int) -> LocalRule:
    """Eliminate top digits over beta = a/b: {0..a+b} -> {0..a+b-1}.

    (t, r) = (0, 1): carry q_j = 1 whenever z_j >= a, removing a at j and
    adding b at j+1 (b*beta = a).
    """
    def q(sub, _a=a, _b=b):
        return 1 if _a <= sub[0] <= _a + _b else 0

    carry = CarryRule(q, 0, 0, ((0, -a), (1, b)), name=f"gde({a}/{b})",
                      cuts=(a,))
    return derive_local_rule(carry, rational_base(a, b),
                             Alphabet(0, a + b), Alphabet(0, a + b - 1))


@lru_cache(maxsize=None)
def gde_rational_neg(a: int, b: int) -> LocalRule:
    """Eliminate top digits over beta = -a/b: {0..a+b} -> {0..a+b-1}.

    (t, r) = (0, 2); b*beta = -a, so a positive carry removes a at j and
    b at j+1, and a previous large digit can force a borrow instead.
    """
    def q(sub, _a=a, _b=b):
        zj, zm = sub
        if zj == _a + _b:
            return 1
        if _a <= zj <= _a + _b - 1 and 0 <= zm <= _b - 1:
            return 1
        if 0 <= zj <= _b - 1 and _a <= zm <= _a + _b:
            return -1
        return 0

    carry = CarryRule(q, 0, 1, ((0, -a), (1, -b)), name=f"gde(-{a}/{b})",
                      cuts=(b, a, a + b))
    return derive_local_rule(carry, negative_rational_base(a, b),
                             Alphabet(0, a + b), Alphabet(0, a + b - 1))


# --- dispatch --------------------------------------------------------------

def canonical_gde(base: BaseSpec) -> LocalRule:
    """The top-digit eliminator on {0..K} for the base, K+1 = minimal size."""
    kind = base.kind
    if kind in (INTEGER, ROOT):  # X**k - b, b least: the rule of b**(1/k)
        (k, _), (_, c) = base.minimal_terms
        return gde_root(-c, k, False)
    if kind == NEGATIVE_INTEGER:
        return gde_negative_integer(base.param("b"))
    if kind == NEGATIVE_ROOT:
        if base.param("k") == 1:
            return gde_negative_integer(base.param("b"))
        return gde_root(base.param("b"), base.param("k"), True)
    if kind == PISOT_MINUS:
        return gde_pisot_minus(base.param("a"))
    if kind == PISOT_PLUS:
        return gde_pisot_plus(base.param("a"))
    if kind == RATIONAL_POS:
        return gde_rational_pos(base.param("a"), base.param("b"))
    if kind == RATIONAL_NEG:
        return gde_rational_neg(base.param("a"), base.param("b"))
    raise UnsupportedBaseError(f"no conversion rule for kind {kind!r}",
                               kind=kind)


@dataclass(frozen=True)
class RulePair:
    """Top/bottom digit eliminators adapted to one target alphabet.

    ``gde`` maps {m..M+1} -> {m..M} (absent when M = 0: nothing above the
    alphabet top to eliminate there in a single-sided run); ``sde`` maps
    {m-1..M} -> {m..M} (absent when m = 0).
    """

    gde: Optional[LocalRule]
    sde: Optional[LocalRule]


def rules_for_alphabet(base: BaseSpec, alphabet: Alphabet) -> RulePair:
    """Adapt the base's eliminators to a contiguous alphabet {m..M}.

    Only minimal-size alphabets are supported.  The translation by d = -m
    is licensed when d (for the top eliminator) resp. K-1-d (for the
    mirrored bottom eliminator) is a fixed letter of the canonical rule;
    for rational bases beta = a/b this refuses exactly the shifts
    1 <= d <= b-1 and a <= d <= a+b-2, for which no windowed conversion
    exists at minimal size.
    """
    rule = canonical_gde(base)
    K = rule.output_alphabet.M + 1  # canonical output is {0..K-1}
    if alphabet.size < K:
        raise AlphabetTooSmallError(
            f"alphabet {alphabet} has {alphabet.size} digits; base "
            f"{base.describe()} needs at least {K}", minimal=K)
    if alphabet.size != K:
        raise UnsupportedAlphabetError(
            f"only minimal-size ({K}-digit) contiguous alphabets are "
            f"supported for base {base.describe()}, got {alphabet}",
            minimal=K)
    d = -alphabet.m
    fixed = fixed_letters(rule)
    if alphabet.M == 0:
        # all-negative alphabet {-(K-1)..0}: only the bottom eliminator
        # exists, as the mirror image of the canonical rule
        return RulePair(gde=None, sde=negate_rule(rule))
    if d == 0:
        return RulePair(gde=rule, sde=None)
    if d not in fixed:
        raise UnsupportedAlphabetError(
            f"no windowed conversion onto {alphabet} for base "
            f"{base.describe()}: shift {d} is not a fixed digit",
            shift=d)
    gde_d = shift_alphabet(rule, d)
    if K - 1 - d not in fixed:
        raise UnsupportedAlphabetError(
            f"no windowed conversion onto {alphabet} for base "
            f"{base.describe()}: shift {K - 1 - d} is not a fixed digit",
            shift=K - 1 - d)
    sde_d = negate_rule(shift_alphabet(rule, K - 1 - d))
    return RulePair(gde=gde_d, sde=sde_d)
