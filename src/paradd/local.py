"""Windowed digit-set conversion engine.

A :class:`LocalRule` is a sliding-window map: output digit at position j
is a function Phi of the input digits at positions j+t .. j-r (window
length p = t + r + 1, most significant end first), with Phi(0,...,0) = 0.
Applying a rule to a digit string therefore needs no carry propagation:
every output position is computed independently, which is what makes the
resulting addition algorithms parallel.

Every rule but a composition has one form, a :class:`CarryRule`: a carry
q read from one small exact table and added back at fixed offsets with
fixed coefficients.  The selector reads every k-th digit (its stride) of
a sub-window around each position and compares each digit with a few cut
points, so q depends only on the digits' classes, the runs of the
alphabet between cuts; the table holds q once per window of classes.  A
table of Phi (a table-form rule file) is the carry rule q = Phi - centre
over the whole window, placed once at (0, 1), with one class per digit.
A carry rule preserves represented values exactly when its
offset/coefficient pattern is a multiple of the base's minimal
polynomial; :func:`derive_local_rule` checks that, tabulates the
selector on the least digit of each class, and proves the closure of the
output alphabet from that table by one exact sweep
(:func:`closure_range`).  Nothing is sampled.  A rule's one compiled
form is its :class:`PassFacts`, read by Phi, its file form and both pass
runners; a composition of rules (:func:`compose_rules`) is not proved.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, repeat
from operator import add, mul
from typing import Callable, Optional

from .core import Alphabet, BaseSpec, DigitString, normalize
from .algebra import reduce_mod_base
from .errors import (
    AlphabetMismatchError,
    DigitOutOfAlphabetError,
    LetterNotFixedError,
    LimitExceededError,
    OutputEscapesAlphabetError,
    PatternNotMultipleError,
    RuleFileError,
    ZeroNotFixedError,
)

DEFAULT_TABLE_BUDGET = 10 ** 5


@dataclass(frozen=True)
class CarryRule:
    """Digit selector + reinjection pattern defining a windowed conversion.

    With stride k, ``selector(sub)`` reads the digits (z_{j+k*ta},
    z_{j+k*(ta-1)}, ..., z_{j-k*tm}) most significant first and returns
    the carry q_j.  It compares each digit only with the ``cuts``, the
    digits where a class of the alphabet begins, so it is one value on
    each window of classes.  Each placement ``(delta, gamma)`` adds
    ``gamma * q_{j-k*delta}`` to output position j.  ta, tm and delta
    count strides.  A carry rule read from a file, shifted or negated has
    no selector: its table is its form.
    """

    selector: Optional[Callable]
    selector_anticipation: int  # ta: how many strides ahead it looks
    selector_memory: int        # tm: how many behind
    placements: tuple           # ((delta, gamma), ...)
    cuts: tuple
    name: str = ""
    stride: int = 1

    @property
    def selector_window(self) -> int:
        """Digits the selector reads."""
        return self.selector_anticipation + self.selector_memory + 1

    @property
    def selector_span(self) -> int:
        """Digits from the first the selector reads to the last."""
        return (self.selector_window - 1) * self.stride + 1

    def pattern_poly(self) -> DigitString:
        """Value shift caused by a unit carry, as a digit string."""
        if not self.placements:
            return DigitString.zero()
        k = self.stride
        lo = min(d for d, _ in self.placements) * k
        hi = max(d for d, _ in self.placements) * k
        coeffs = [0] * (hi - lo + 1)
        for delta, gamma in self.placements:
            coeffs[hi - delta * k] += gamma
        return DigitString(tuple(coeffs), lo)

    def window(self) -> tuple:
        """(t, r): the least anticipation and memory covering every read."""
        ta, tm, k = (self.selector_anticipation, self.selector_memory,
                     self.stride)
        return (k * max([0] + [ta - delta for delta, _ in self.placements]),
                k * max([0] + [tm + delta for delta, _ in self.placements]))

    def reads(self, t: int) -> list:
        """(window index where the sub-window starts, gamma) per placement,
        in windows with anticipation t."""
        return [(t + (delta - self.selector_anticipation) * self.stride,
                 gamma) for delta, gamma in self.placements]


@dataclass(frozen=True)
class LocalRule:
    """A verified sliding-window digit-set conversion, in carry form.

    ``carry`` is the rule's :class:`CarryRule`, its cuts one sorted digit
    per class but the first; a table of Phi, as read from a table-form
    file, is the carry rule q = Phi - centre over the whole window,
    placed at (0, 1).  ``selector_table`` holds q for every window of
    classes, indexed by its code: the classes (0 for the least digits)
    read in base ``len(cuts) + 1``, msd first.  Phi and the rule's file
    form read ``facts``, its :class:`PassFacts` over the input alphabet.
    """

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    anticipation: int  # t
    memory: int        # r
    carry: CarryRule = field(repr=False)
    selector_table: tuple = field(repr=False)
    name: str

    @property
    def window_length(self) -> int:
        return self.anticipation + self.memory + 1

    @property
    def selector_table_size(self) -> int:
        """Entries of the selector table by digits: one per sub-window of
        the digits it spans, as a rule file holds it."""
        return self.input_alphabet.size ** self.carry.selector_span

    @cached_property
    def facts(self) -> PassFacts:
        """The rule's pass on its input alphabet, built on first use."""
        return PassFacts(self, self.input_alphabet.m, self.input_alphabet.M)

    def phi(self, window) -> int:
        """Output digit for one window (msd-first sequence of length p):
        the centre digit plus each placed carry."""
        f, out = self.facts, window[self.anticipation]
        for i0, gamma in f.placements:
            out += gamma * f.carry_of(window[i0:i0 + f.span:f.stride])
        return out

    def to_json(self) -> dict:
        """The rule in carry form at stride 1, whichever form it was read
        from; a selector table above ``DEFAULT_TABLE_BUDGET`` entries is
        refused with ``LimitExceededError`` before any entry is computed."""
        cr, size, k = self.carry, self.selector_table_size, self.carry.stride
        if size > DEFAULT_TABLE_BUDGET:
            raise LimitExceededError(f"rule {self.name!r} needs a selector "
                                     f"table of {size} entries, above "
                                     f"{DEFAULT_TABLE_BUDGET}", entries=size)
        f, subs = self.facts, itertools.product(list(self.input_alphabet),
                                                repeat=cr.selector_span)
        return {
            "name": self.name,
            "anticipation": self.anticipation,
            "memory": self.memory,
            "input_alphabet": self.input_alphabet.to_json(),
            "output_alphabet": self.output_alphabet.to_json(),
            "carry": {
                "selector_anticipation": cr.selector_anticipation * k,
                "selector_memory": cr.selector_memory * k,
                "placements": [[delta * k, gamma]
                               for delta, gamma in cr.placements],
                "selector_table": {" ".join(map(str, sub)):
                                   f.carry_of(sub[::k]) for sub in subs},
            },
        }


class PassFacts:
    """A rule's pass as Phi, both runners and a rule file read it.  A
    digit's class is the count of the rule's ``cuts`` at or below it:
    ``classes`` by digit over the proven input range [lo, hi], ``zero``
    for digit 0.  The carry is read from ``table`` at the code, in base
    ``n``, of the classes of every ``stride``-th of a sub-window's ``span``
    digits; each placement (its window index, gamma) adds it, none when
    the table is all zeros.  Also the window (t, r) and ``reach``."""

    def __init__(self, rule: LocalRule, lo: int, hi: int):
        cr, self.lo, self.hi = rule.carry, lo, hi
        self.cuts = cr.cuts or (float("inf"),)  # one class: no digit cuts
        self.n = len(self.cuts) + 1  # the base of class codes
        self.classes = [bisect_right(self.cuts, d)  # d < 0 wraps to the end
                        for d in chain(range(hi + 1), range(lo, 0))]
        self.zero, self.table = bisect_right(self.cuts, 0), rule.selector_table
        self.t, self.r = rule.anticipation, rule.memory
        self.width, self.stride = cr.selector_window, cr.stride
        self.span, self.ta = cr.selector_span, cr.selector_anticipation
        reads = cr.reads(self.t)
        self.reach = sum(abs(g) for _, g in reads) * max(map(abs, self.table))
        self.placements = reads if self.reach else []

    def carry_of(self, sub) -> int:
        """q on the ``width`` digits in [lo, hi] that one sub-window's
        selector reads, msd first: the table at their class code."""
        code = 0
        for d in sub:
            code = code * self.n + self.classes[d]
        return self.table[code]

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
        code, base = C[:span], repeat(self.n)
        for j in range(k, self.width * k, k):
            code = map(add, map(mul, code, base), C[j:j + span])
        q = list(map(self.table.__getitem__, code))
        for i0, gamma in self.placements:
            out = map(add, out, map(mul, q[i0:i0 + n + pad], repeat(gamma)))
        return list(out), q

    def carries(self, q, msd: int) -> dict:
        """The nonzero carries ``q`` that :meth:`run` returned, by place,
        for an input with its msd at msd."""
        top = msd + self.t + self.r - self.stride * self.ta  # q[0]'s place
        return {top - i: c for i, c in enumerate(q) if c}


def _complete(table: dict, alphabet: Alphabet, width: int) -> dict:
    """The table, if it holds every window of ``width`` digits over the
    alphabet; else a RuleFileError naming the first one missing."""
    if {len(w) for w in table} != {width}:
        raise RuleFileError(f"rule table needs windows of {width} digits")
    for w in itertools.product(list(alphabet), repeat=width):
        if w not in table:
            raise RuleFileError(
                f"rule table lacks the window {' '.join(map(str, w))!r}",
                window=list(w))
    return table


def rule_from_json(data: dict) -> LocalRule:
    """Rebuild a rule from its JSON export (carry form), or from a table of
    Phi on every window (table form), read as the carry rule q = Phi -
    centre over the whole window, placed at (0, 1).  Each digit is a
    class of its own.

    A table must hold every (sub-)window over the input alphabet.  No other
    verification happens here; feed the result to the oracle.
    """
    in_alpha = Alphabet.from_json(data["input_alphabet"])
    out_alpha = Alphabet.from_json(data["output_alphabet"])
    t, r = data["anticipation"], data["memory"]
    if min(t, r) < 0:
        raise RuleFileError("anticipation and memory must be at least 0")
    if "carry" in data:
        cd = data["carry"]
        sa, sm, entries = (cd["selector_anticipation"], cd["selector_memory"],
                           cd["selector_table"])
        placements = tuple(tuple(pl) for pl in cd["placements"])
    else:
        sa, sm, entries, placements = t, r, data["table"], ((0, 1),)
    sel_table = _complete({tuple(int(x) for x in key.split()): int(v)
                           for key, v in entries.items()},
                          in_alpha, sa + sm + 1)
    if "carry" not in data:
        sel_table = {w: v - w[t] for w, v in sel_table.items()}
    carry = CarryRule(None, sa, sm, placements, tuple(range(
        in_alpha.m + 1, in_alpha.M + 1)), name=data.get("name", ""))
    if any(not 0 <= i0 <= t + r + 1 - carry.selector_window
           for i0, _ in carry.reads(t)):
        raise RuleFileError("a carry placement reads outside the window")
    q = tuple(sel_table[w] for w in itertools.product(
        in_alpha, repeat=carry.selector_window))
    return LocalRule(in_alpha, out_alpha, t, r, carry, q, carry.name)


def derive_local_rule(carry: CarryRule, base: BaseSpec,
                      input_alphabet: Alphabet,
                      output_alphabet: Alphabet) -> LocalRule:
    """Turn a carry rule into a checked LocalRule.

    Checks, in order: the placement pattern represents 0 in the base (so
    the conversion preserves values); the window parameters (t, r) cover
    every read; all outputs stay inside ``output_alphabet``; the all-zero
    window maps to 0.  The selector is tabulated once, on the least digit
    of each class, over the c**sw windows of c classes, and closure is
    proved from that table by the exact sweep of :func:`closure_range`; a
    window is enumerated only to name one that escapes.
    """
    if not reduce_mod_base(carry.pattern_poly(), base).is_zero:
        raise PatternNotMultipleError(
            f"carry placements {carry.placements} do not represent 0 in "
            f"base {base.describe()}")
    m, M = input_alphabet.m, input_alphabet.M
    carry = replace(carry, cuts=tuple(sorted(
        {c for c in carry.cuts if m < c <= M})))
    q = tuple(map(carry.selector, itertools.product(
        (m,) + carry.cuts, repeat=carry.selector_window)))
    t, r = carry.window()
    rule = LocalRule(input_alphabet, output_alphabet, t, r, carry, q,
                     carry.name)
    if any(x not in output_alphabet for x in closure_range(rule)):
        for w in itertools.product(input_alphabet, repeat=t + r + 1):
            out = rule.phi(w)
            if out not in output_alphabet:
                raise OutputEscapesAlphabetError(
                    f"window {w} maps to {out}, outside {output_alphabet}",
                    window=list(w), output=out)
    zero = rule.phi((0,) * (t + r + 1))
    if zero != 0:
        raise ZeroNotFixedError(f"all-zero window maps to {zero}, expected 0")
    return rule


def closure_range(rule: LocalRule, lo: int = None, hi: int = None) -> tuple:
    """Exact (least, greatest) output of a rule over input digits in
    [lo, hi], by default its input alphabet.

    Reads the rule's selector table q, with c classes.  Phi(w) = w[t] + sum of
    gamma * q(sub-window at i0) depends only on every k-th digit, k the
    stride, and is swept across those positions, msd first.  The state after
    position s is the class code of the last sw digits read, holding the least
    and the greatest partial sum over the digits before them; position s adds
    the centre digit, the least or the greatest of its class, when s = t, and
    gamma * q when a placement's sub-window ends at s.  As in both runners,
    a digit past either end of the alphabet takes that end's class and keeps
    its excess: the least class starts at lo, the greatest ends at hi, and a
    class holding no digit of [lo, hi] makes the range an enclosure.  That is
    p/k * c**sw steps where enumerating the windows costs |A|**p calls of Phi.
    """
    a, cr, q = rule.input_alphabet, rule.carry, rule.selector_table
    n, width, k = len(cr.cuts) + 1, cr.selector_window, cr.stride
    t, reads = rule.anticipation // k, cr.reads(rule.anticipation)
    lo, hi = a.m if lo is None else lo, a.M if hi is None else hi
    if not reads:  # Phi is the centre digit
        return lo, hi
    size, block = len(q), len(q) // n

    def advance(values, pick):
        # a state at s has one predecessor per class leaving the window:
        # those whose last sw - 1 classes are its first sw - 1
        best = map(pick, zip(*(values[x * block:(x + 1) * block]
                               for x in range(n))))
        return [v for v in best for _ in range(n)]

    least, greatest = (lo,) + cr.cuts, [c - 1 for c in cr.cuts] + [hi]
    low_sum = high_sum = [0] * size  # no digit read yet
    for s in range(width - 1, (rule.window_length - 1) // k + 1):
        placed = [0] * size
        for i0, gamma in reads:
            if i0 // k + width - 1 == s:
                placed = [g + gamma * x for g, x in zip(placed, q)]
        low = high = placed
        if s == max(t, width - 1):  # the centre digit's class, at power s - t
            run = n ** (s - t)
            low = list(map(add, placed, itertools.cycle(
                [d for d in least for _ in range(run)])))
            high = list(map(add, placed, itertools.cycle(
                [d for d in greatest for _ in range(run)])))
        low_sum = list(map(add, advance(low_sum, min), low))
        high_sum = list(map(add, advance(high_sum, max), high))
    return min(low_sum), max(high_sum)


def check_digits(digits, lo: int, hi: int, where: str) -> None:
    """Refuse the first of ``digits`` outside [lo, hi], as outside ``where``;
    one min and one max when none is."""
    if digits and (min(digits) < lo or max(digits) > hi):
        d = next(d for d in digits if not lo <= d <= hi)
        raise DigitOutOfAlphabetError(f"digit {d} outside {where}", digit=d)


def apply_rule(rule: LocalRule, ds: DigitString,
               background: int = 0) -> DigitString:
    """Slide the rule across a digit string.

    The window at position j reads inputs j+t .. j-r, so positions up to
    r above the msd and t below the lsd can still produce nonzero output:
    the output support is [lsd - t, msd + r].  The result is normalized.
    Raises if any input digit falls outside the rule's input alphabet.

    ``background`` is the digit seen outside the string's support (default
    0).  A nonzero background must be a fixed letter of the rule; the
    finite output then records the window where the image differs from
    the constant background stream.
    """
    a = rule.input_alphabet
    check_digits(ds.digits, a.m, a.M, f"input alphabet {a}")
    if background != 0 and background not in fixed_letters(rule):
        raise LetterNotFixedError(
            f"background digit {background} is not fixed by rule "
            f"{rule.name!r}", digit=background)
    if ds.is_zero and background == 0:
        return DigitString.zero()
    t, r = rule.anticipation, rule.memory
    p, phi = rule.window_length, rule.phi
    out_lsd = ds.lsd_exponent - t
    # output j reads exponents j+t .. j-r: the slice of the background-
    # padded digits that starts r + msd - j places in
    pad = (background,) * (t + r)
    padded = pad + tuple(ds.digits) + pad
    out = [phi(padded[k:k + p]) for k in range(len(ds.digits) + t + r)]
    if background != 0:
        return DigitString(tuple(out), out_lsd)
    return normalize(DigitString(tuple(out), out_lsd))


def fixed_letters(rule: LocalRule) -> set:
    """Digits h with Phi(h, ..., h) = h (constant windows mapped to self)."""
    p = rule.window_length
    return {h for h in rule.input_alphabet if rule.phi((h,) * p) == h}


def shift_alphabet(rule: LocalRule, h: int) -> LocalRule:
    """Conjugate the rule by the digit translation x -> x - h.

    Valid (value-preserving on constant-h-padded windows) exactly when h
    is a fixed letter of the rule; enforced here.
    """
    if h == 0:
        return rule
    if h not in fixed_letters(rule):
        raise LetterNotFixedError(
            f"digit {h} is not fixed by rule {rule.name!r}", digit=h)
    in_alpha = rule.input_alphabet.shifted(h)
    out_alpha = rule.output_alphabet.shifted(h)
    # the cuts move with the digits; the class table is unchanged
    carry = replace(rule.carry, selector=None,
                    cuts=tuple(c - h for c in rule.carry.cuts))
    return LocalRule(in_alpha, out_alpha, rule.anticipation, rule.memory,
                     carry, rule.selector_table, f"{rule.name} on {in_alpha}")


def negate_rule(rule: LocalRule) -> LocalRule:
    """Mirror the rule through digit negation: Phi~(w) = -Phi(-w)."""
    in_alpha, out_alpha = (rule.input_alphabet.negated(),
                           rule.output_alphabet.negated())
    # a class [c, c'] becomes [1 - c', -c], so the cuts c become 1 - c;
    # the classes come in reverse order, which turns code x into N - 1 - x
    carry = replace(rule.carry, selector=None,
                    cuts=tuple(sorted(1 - c for c in rule.carry.cuts)))
    return LocalRule(in_alpha, out_alpha, rule.anticipation, rule.memory,
                     carry, tuple(-x for x in reversed(rule.selector_table)),
                     f"{rule.name} negated")


@dataclass(frozen=True)
class Composition:
    """``inner`` then ``outer``, evaluated on each call.  It has no carry
    form: only ``apply_rule`` and ``fixed_letters`` read it, and its outputs
    lie in outer's output alphabet as far as its two rules are proved."""

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    anticipation: int
    memory: int
    name: str
    outer: object = field(repr=False)
    inner: object = field(repr=False)

    window_length = LocalRule.window_length

    def phi(self, window) -> int:
        """outer's Phi of inner's outputs, one per digit of its window."""
        p = self.inner.window_length
        return self.outer.phi(tuple(self.inner.phi(window[i:i + p])
                                    for i in range(self.outer.window_length)))


def compose_rules(outer, inner) -> Composition:
    """Applying ``inner`` first, then ``outer``, either a rule or a
    Composition.  Window parameters add: t = t_o + t_i, r = r_o + r_i.
    The inner output alphabet must embed in the outer input alphabet."""
    if not (outer.input_alphabet.m <= inner.output_alphabet.m
            and inner.output_alphabet.M <= outer.input_alphabet.M):
        raise AlphabetMismatchError(
            f"inner output {inner.output_alphabet} not contained in outer "
            f"input {outer.input_alphabet}")
    return Composition(inner.input_alphabet, outer.output_alphabet,
                       outer.anticipation + inner.anticipation,
                       outer.memory + inner.memory,
                       f"{inner.name} then {outer.name}", outer, inner)
