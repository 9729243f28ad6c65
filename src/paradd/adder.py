"""Constant-parallel-time addition pipelines.

Adding two strings over alphabet A digit-by-digit lands in A+A; a fixed
sequence of windowed conversion passes brings the digits back into A.
The plan depends only on the system, never on the data, so every output
digit of a sum is a function of a bounded window of input digits.

Each pass clamps the string into its eliminator's input range, carries
the clipped excess over unchanged and adds the eliminator's carries; the
plan ends once ``closure_range``, chained through its passes, proves
every digit in A.  For beta**2 = a*beta - 1 with the canonical alphabet
a two-stage pipeline applies the rules to the whole digit range
directly; its passes clamp alike, and clip nothing.  Pass kinds only
label the passes, in exports and traces.

``add`` and ``subtract`` run the plan with the array kernel
(``paradd.kernel``) on operands of at least ``MIN_ARRAY_DIGITS`` digits,
through the pipeline's compiled plan (``AdderPipeline.kernel_plan``),
which reads each rule's class table as the scalar loop does, so every
plan compiles.  The scalar loop here (``reduce_to_alphabet``:
``local.apply_rule`` plus ``_clamp_split``) is the reference the kernel
is tested against; it serves traces and short operands, numpy loaded or
not, so an add's path and cost follow its length alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    DigitString, NumerationSystem, PISOT_MINUS, digitwise_negate,
    digitwise_sum, normalize,
)
from .errors import AlphabetLacksNegativesError
from .local import apply_rule, carries, check_digits, closure_range
from .rules import doubling_reducer, gde_pisot_minus, rules_for_alphabet

# pass kinds, as labels
MAP = "map"          # a pass of the two-stage direct plan
TOP_PASS = "top"     # rule on {m..M+1}: eliminates the top digit
BOTTOM_PASS = "bottom"  # rule on {m-1..M}: eliminates the bottom digit


@dataclass(frozen=True)
class AdderPipeline:
    """A fixed plan of conversion passes for one numeration system."""

    system: NumerationSystem
    plan: tuple  # ((kind, rule), ...)
    input_range: tuple  # (lo, hi): digits the plan provably reduces to A

    @property
    def effective_window(self) -> tuple:
        """Total (anticipation, memory) of the composed pipeline."""
        t = sum(rule.anticipation for _, rule in self.plan)
        r = sum(rule.memory for _, rule in self.plan)
        return (t, r)

    @cached_property
    def kernel_plan(self):
        """The plan compiled for the array kernel (``kernel.Plan``) from
        each rule's class table and cuts as they are, built on first use
        and kept; this loads numpy."""
        from .kernel import Plan
        return Plan([rule for _, rule in self.plan], *self.input_range)

    def to_json(self) -> dict:
        return {
            "system": self.system.to_json(),
            "passes": [{"kind": kind, "rule": rule.name,
                        "anticipation": rule.anticipation,
                        "memory": rule.memory}
                       for kind, rule in self.plan],
            "effective_window": list(self.effective_window),
        }


def build_pipeline(system: NumerationSystem) -> AdderPipeline:
    """Choose the pass plan for a system, as its closure proof needs it.

    Generic plan: rounds of the top, then the bottom eliminator on digits
    in A+A, and in A-A too on mixed-sign alphabets, until the range
    chained by ``closure_range`` lies in A; each rule's closure lowers the
    excess by at least 1 a round, so max(M, -m) rounds bound the loop.  The
    canonical {0..a-1} alphabet for beta**2 = a*beta - 1 instead uses the
    two-stage direct plan with window (5, 5).
    """
    base, alphabet = system.base, system.alphabet
    m, M = alphabet.m, alphabet.M
    pair = rules_for_alphabet(base, alphabet)
    lo, hi = start = (min(2 * m, m - M if m else 0),
                      max(2 * M, M - m if M else 0))
    if base.kind == PISOT_MINUS and m == 0:
        a = base.param("a")  # the first rule reads A+A = {0..2a-2}
        plan = ((MAP, doubling_reducer(a)), (MAP, gde_pisot_minus(a)))
        return AdderPipeline(system, plan, start)
    steps = []
    for _ in range(max(M, -m)):
        for kind, rule in ((TOP_PASS, pair.gde), (BOTTOM_PASS, pair.sde)):
            if rule is not None:
                steps.append((kind, rule))
                lo, hi = closure_range(rule, lo, hi)
        if m <= lo and hi <= M:
            break
    return AdderPipeline(system, tuple(steps), start)


def _clamp_split(z: DigitString, lo: int, hi: int):
    """z = u + v with u digitwise clamped into [lo, hi]; v is None, and u
    is z, when no digit is clipped."""
    if lo <= min(z.digits, default=lo) and max(z.digits, default=hi) <= hi:
        return z, None
    u = tuple(min(max(d, lo), hi) for d in z.digits)
    return (DigitString(u, z.lsd_exponent),
            DigitString(tuple(d - c for d, c in zip(z.digits, u)),
                        z.lsd_exponent))


def reduce_to_alphabet(z: DigitString, pipeline: AdderPipeline,
                       trace: list = None) -> DigitString:
    """Run the fixed pass plan on a digit string.

    The input digits must lie within the pipeline's provable input range
    (alphabet sum A+A always qualifies).  Each pass clamps into its
    rule's input alphabet.  Appends (pass-kind, string) snapshots to
    ``trace`` when given.
    """
    lo, hi = pipeline.input_range
    check_digits(z.digits, lo, hi, f"reducible range [{lo}, {hi}]")
    for kind, rule in pipeline.plan:
        u, v = _clamp_split(z, rule.input_alphabet.m, rule.input_alphabet.M)
        w = apply_rule(rule, u)
        z = digitwise_sum(w, v) if v is not None else w
        if trace is not None:
            trace.append({"kind": kind, "string": z,
                          "carries": carries(rule, u)})
    return normalize(z)


# Shortest operand, in digits, that add/subtract hand to the kernel.  On
# a 2-CPU host (the seven bulk benchmark systems) an add that follows a
# gc.collect() and 2 ms of other Python work cost the kernel a flat
# 230-320 us from 64 to 512 digits, the scalar loop 2.4-4.7 us a digit;
# warm, the kernel took 51-79 us at 64 digits.  A fresh process also pays
# numpy's import, 58-92 ms.  Below 1 000 an add costs in step with its
# length, and a one-shot `paradd add` never loads numpy.
MIN_ARRAY_DIGITS = 1_000


def _combine(x: DigitString, y: DigitString, pipeline: AdderPipeline,
             trace: list, negate: bool) -> DigitString:
    """x + y, or x - y with ``negate``: digitwise, then the pass plan."""
    longest = max(len(x.digits), len(y.digits))
    if trace is None and longest >= MIN_ARRAY_DIGITS:
        from .kernel import add_strings
        return add_strings(x, y, pipeline, negate)
    al = pipeline.system.alphabet
    for s in (x, y):
        check_digits(s.digits, al.m, al.M, f"alphabet {al}")
    z = digitwise_sum(x, digitwise_negate(y) if negate else y)
    if trace is not None:
        kind = "digitwise-difference" if negate else "digitwise-sum"
        trace.append({"kind": kind, "string": z, "carries": {}})
    result = reduce_to_alphabet(z, pipeline, trace)
    check_digits(result.digits, al.m, al.M, f"alphabet {al}")
    return result


def add(x: DigitString, y: DigitString, pipeline: AdderPipeline,
        trace: list = None) -> DigitString:
    """Parallel addition: digitwise sum, then the fixed conversion plan."""
    return _combine(x, y, pipeline, trace, negate=False)


def subtract(x: DigitString, y: DigitString, pipeline: AdderPipeline,
             trace: list = None) -> DigitString:
    """Parallel subtraction; needs an alphabet with digits of both signs."""
    alphabet = pipeline.system.alphabet
    if alphabet.m == 0 or alphabet.M == 0:
        raise AlphabetLacksNegativesError(
            f"subtraction needs a mixed-sign alphabet, got {alphabet}")
    return _combine(x, y, pipeline, trace, negate=True)
