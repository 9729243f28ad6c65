"""Constant-parallel-time addition pipelines.

Adding two strings over alphabet A digit-by-digit lands in A+A; a fixed
sequence of windowed conversion passes brings the digits back into A.
The plan depends only on the system, never on the data, so every output
digit of a sum is a function of a bounded window of input digits.

A pass adds its eliminator's carries to the digits, whole: a digit past
the rule's alphabet takes the class of that end, and keeps its excess.
``build_pipeline`` chains ``closure_range`` through the passes until the
range lies in A (for beta**2 = a*beta - 1 and the canonical alphabet,
through a two-stage direct plan), and keeps each range.

Both runners of a plan read one numpy-free ``local.PassFacts`` per pass,
``AdderPipeline.passes``, over the range proven into it: the array
kernel (``paradd.kernel``) adds operands of at least ``MIN_ARRAY_DIGITS``
digits, reading each group of passes whose window table fits as that
table, and the list runner here (``reduce_to_alphabet``) shorter ones
and traces with ``PassFacts.run``, numpy loaded or not.  Both are tested
against ``local.apply_rule``.  Pass kinds only label passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    DigitString, NumerationSystem, PISOT_MINUS, digitwise_negate,
    digitwise_sum, normalize,
)
from .errors import AlphabetLacksNegativesError
from .local import PassFacts, check_digits, closure_range
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
    ranges: tuple  # (lo, hi) proven into each pass, and out of the last

    @property
    def input_range(self) -> tuple:
        """(lo, hi): digits the plan provably reduces to A."""
        return self.ranges[0]

    @property
    def effective_window(self) -> tuple:
        """Total (anticipation, memory) of the composed pipeline."""
        return (sum(rule.anticipation for _, rule in self.plan),
                sum(rule.memory for _, rule in self.plan))

    @cached_property
    def passes(self) -> tuple:
        """Each pass's :class:`PassFacts`, built on first use and kept."""
        return tuple(PassFacts(rule, *rng)
                     for (_, rule), rng in zip(self.plan, self.ranges))

    @cached_property
    def kernel_plan(self):
        """The plan compiled for the array kernel (``kernel.Plan``) from
        ``passes``, built on first use and kept; this loads numpy."""
        from .kernel import Plan
        return Plan(self.passes)

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
    two-stage direct plan with window (5, 5), chained alike.
    """
    base, alphabet = system.base, system.alphabet
    m, M = alphabet.m, alphabet.M
    ranges = [(min(2 * m, m - M if m else 0), max(2 * M, M - m if M else 0))]
    if base.kind == PISOT_MINUS and m == 0:
        a = base.param("a")  # the first rule reads A+A = {0..2a-2}
        rounds = [((MAP, doubling_reducer(a)), (MAP, gde_pisot_minus(a)))]
    else:
        pair = rules_for_alphabet(base, alphabet)
        rounds = [((TOP_PASS, pair.gde), (BOTTOM_PASS, pair.sde))] * max(M, -m)
    steps = []
    for passes in rounds:
        for kind, rule in passes:
            if rule is not None:
                steps.append((kind, rule))
                ranges.append(closure_range(rule, *ranges[-1]))
        if m <= ranges[-1][0] and ranges[-1][1] <= M:
            break
    return AdderPipeline(system, tuple(steps), tuple(ranges))


def reduce_to_alphabet(z: DigitString, pipeline: AdderPipeline,
                       trace: list = None) -> DigitString:
    """Run the fixed pass plan on a digit string, on lists.

    The input digits must lie within the pipeline's provable input range
    (alphabet sum A+A always qualifies).  Appends, per pass, its kind, the
    string it leaves (with its input's places if it clipped a digit) and
    its carries to ``trace`` when given.
    """
    lo, hi = pipeline.input_range
    check_digits(z.digits, lo, hi, f"reducible range [{lo}, {hi}]")
    for (kind, rule), step in zip(pipeline.plan, pipeline.passes):
        Z, a = z.digits, rule.input_alphabet
        out, q = step.run(Z)
        w = DigitString(tuple(out), z.lsd_exponent - step.t)
        if trace is not None:
            w = normalize(w)
            if Z and not a.m <= min(Z) <= max(Z) <= a.M:  # Z's places stay
                w = digitwise_sum(w, DigitString((0,) * len(Z),
                                                 z.lsd_exponent))
            trace.append({"kind": kind, "string": w,
                          "carries": step.carries(q, z.msd_exponent)})
        z = w
    return normalize(z)


# Shortest operand, in digits, that add/subtract hand to the kernel.  On
# a 2-CPU host, medians of 21 adds on each of the seven bulk benchmark
# systems, each add after 2 ms of other Python work and a gc.collect(): the
# list runner took 0.15-0.22 ms at 64 digits, 0.30-0.47 at 256, 0.44-0.74
# at 512 and 0.77-1.4 at 1 000; the kernel 0.27-0.36 ms at 256 and
# 0.31-0.45 at 1 000 (0.06-0.11 back to back).  A one-shot `paradd add`
# below 1 000 digits never pays numpy's import, 70 ms.
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
