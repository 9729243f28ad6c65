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

Both runners of a plan read one numpy-free record per pass,
``AdderPipeline.passes``: the array kernel (``paradd.kernel``) adds
operands of at least ``MIN_ARRAY_DIGITS`` digits, from ``kernel.BLOCK_DIGITS``
on through window tables built from those records, and the list runner here
(``reduce_to_alphabet``) shorter ones and traces, numpy loaded or not, each
step a ``map`` over ``operator`` functions.  Both are tested against
``local.apply_rule``.  Pass kinds only label passes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import add as plus, mul

from .core import (
    DigitString, NumerationSystem, PISOT_MINUS, digitwise_negate,
    digitwise_sum, normalize,
)
from .errors import AlphabetLacksNegativesError
from .local import LocalRule, check_digits, closure_range
from .rules import doubling_reducer, gde_pisot_minus, rules_for_alphabet

# pass kinds, as labels
MAP = "map"          # a pass of the two-stage direct plan
TOP_PASS = "top"     # rule on {m..M+1}: eliminates the top digit
BOTTOM_PASS = "bottom"  # rule on {m-1..M}: eliminates the bottom digit


class PassFacts:
    """One pass as both runners read it.  A digit's class is the count of
    the rule's ``cuts`` at or below it: ``classes`` by digit over the
    proven input range [lo, hi], ``zero`` for digit 0.  The carry is read
    from ``table`` at the code of ``width`` classes, every ``stride``-th;
    the placements (window index of the sub-window, gamma) add it, none
    when the table is all zeros.  Also the window (t, r) and ``reach``."""

    def __init__(self, rule: LocalRule, lo: int, hi: int):
        cr, self.rule, self.lo, self.hi = rule.carry, rule, lo, hi
        self.cuts = cr.cuts or (float("inf"),)  # one class: no digit cuts
        self.classes = [bisect_right(self.cuts, d)  # d < 0 wraps to the end
                        for d in chain(range(hi + 1), range(lo, 0))]
        self.zero, self.table = bisect_right(self.cuts, 0), rule.selector_table
        self.t, self.r = rule.anticipation, rule.memory
        self.width, self.stride = cr.selector_window, cr.stride
        reads = cr.reads(self.t)
        self.reach = sum(abs(g) for _, g in reads) * max(map(abs, self.table))
        self.placements = reads if self.reach else []

    def run(self, Z) -> tuple:
        """``kernel``'s pass on a sequence of digits, msd first: the output
        list, t + r digits wider, index r in line with Z[0]; the carries."""
        n, r, pad = len(Z), self.r, self.t + self.r
        out = [*[0] * r, *Z, *[0] * self.t]
        if not self.placements:
            return out, []
        k, edge = self.stride, [self.zero] * pad
        C = edge + list(map(self.classes.__getitem__, Z)) + edge
        span = n + 2 * pad - (self.width - 1) * k
        code, base = C[:span], repeat(len(self.cuts) + 1)
        for j in range(k, self.width * k, k):
            code = map(plus, map(mul, code, base), C[j:j + span])
        q = list(map(self.table.__getitem__, code))
        for i0, gamma in self.placements:
            out = map(plus, out, map(mul, q[i0:i0 + n + pad], repeat(gamma)))
        return list(out), q

    def carries(self, q, msd: int) -> dict:
        """The nonzero carries ``q`` that :meth:`run` returned, by place,
        for an input with its msd at msd."""
        top = msd + self.t + self.r - self.stride * \
            self.rule.carry.selector_anticipation  # the place of q[0]
        return {top - i: c for i, c in enumerate(q) if c}


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
# a 2-CPU host, medians over the seven bulk benchmark systems of an add
# after 2 ms of other Python work and a gc.collect(): the list runner took
# 0.22-0.24 ms at 64 digits, 0.43-0.51 at 256, 0.72-0.76 at 512, 1.3-1.4
# at 1 000 and 2.3-2.7 at 2 000; the kernel 0.33-0.53 ms throughout.  A
# one-shot `paradd add` below 1 000 digits never pays numpy's import, 70 ms.
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
