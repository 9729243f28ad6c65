"""Lower bounds on alphabet size for constant-time (windowed) addition.

Two general bounds apply to real bases beta > 1: any alphabet allowing
windowed addition has at least ceil(beta) digits, and for an algebraic
base with minimal polynomial f at least |f(1)| digits -- raised to
|f(1)| + 2 when beta > 1 is real (both extreme digits behave rigidly).
Rational bases a/b admit a direct counting argument giving a + b.  The
catalog rules in this package meet every applicable bound with equality,
which is what makes their alphabets minimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import BaseSpec, RATIONAL_NEG, RATIONAL_POS
from .errors import NotApplicableError


@dataclass(frozen=True)
class BoundReport:
    """All applicable lower bounds for one base, and their maximum."""

    base: BaseSpec
    ceiling_bound: Optional[int]        # ceil(beta), real beta > 1 only
    f1: Optional[int]                   # |f(1)| of the minimal polynomial
    f1_bound: Optional[int]             # |f(1)|, +2 when real beta > 1
    direct_bound: Optional[int]         # rational bases: a + b
    minimal_size: int

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "ceiling_bound": self.ceiling_bound,
            "f1": self.f1,
            "f1_bound": self.f1_bound,
            "direct_bound": self.direct_bound,
            "minimal_size": self.minimal_size,
        }


def f1_of(base: BaseSpec) -> int:
    """|f(1)| for the minimal polynomial f of an algebraic-integer base."""
    terms = base.minimal_terms
    if terms[0][1] != 1:
        raise NotApplicableError(
            "the |f(1)| bound assumes an algebraic integer; rational "
            "bases use the direct a + b bound")
    return abs(sum(c for _, c in terms))


def minimal_alphabet_report(base: BaseSpec) -> BoundReport:
    """Collect every applicable lower bound and the resulting minimum."""
    ceiling = base.ceil_beta() if base.is_real_gt1 else None
    direct = None
    f1 = f1_bound = None
    if base.kind in (RATIONAL_POS, RATIONAL_NEG):
        direct = base.param("a") + base.param("b")
    else:
        f1 = f1_of(base)
        f1_bound = f1 + 2 if base.is_real_gt1 else f1
    candidates = [v for v in (ceiling, f1_bound, direct) if v is not None]
    return BoundReport(base, ceiling, f1, f1_bound, direct,
                       minimal_size=max(candidates))


def minimal_alphabet_size(base: BaseSpec) -> int:
    """Best-known lower bound on alphabet size; every base kind has one."""
    return minimal_alphabet_report(base).minimal_size
