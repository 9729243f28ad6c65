"""Windowed digit-set conversion engine.

A :class:`LocalRule` is a sliding-window map: output digit at position j
is a function Phi of the input digits at positions j+t .. j-r (window
length p = t + r + 1, most significant end first), with Phi(0,...,0) = 0.
Applying a rule to a digit string therefore needs no carry propagation:
every output position is computed independently, which is what makes the
resulting addition algorithms parallel.

Every rule has one form, a :class:`CarryRule`: a digit selector Q
examined on a sub-window around each position, whose value is added back
at fixed offsets with fixed coefficients.  A rule given as a table of
Phi (a table-form rule file, or a composition of rules) is the carry rule
whose selector reads the whole window and returns q = Phi - centre,
placed once at (0, 1).  A carry rule preserves represented values exactly
when its offset/coefficient pattern is a multiple of the base's minimal
polynomial; :func:`derive_local_rule` checks that and the closure of the
output alphabet.  It tabulates the selector once, over the |A|**sw
sub-windows, and proves closure from that table with one exact sweep
(:func:`closure_range`) instead of evaluating Phi on all |A|**p windows;
only a selector table above ``DEFAULT_TABLE_BUDGET`` entries is left
untabulated, and its closure is checked on ``SAMPLE_COUNT`` random
windows.
"""

from __future__ import annotations

import itertools
import random
from operator import add
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import Alphabet, BaseSpec, DigitString, normalize
from .algebra import laurent, reduce_mod_base
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
SAMPLE_COUNT = 20000


@dataclass(frozen=True)
class CarryRule:
    """Digit selector + reinjection pattern defining a windowed conversion.

    ``selector(sub)`` reads the sub-window (z_{j+ta}, ..., z_{j-tm}) most
    significant first and returns the carry q_j.  Each placement
    ``(delta, gamma)`` adds ``gamma * q_{j-delta}`` to output position j,
    i.e. carry q_i is weighted by gamma at position i + delta.
    """

    selector: Callable
    selector_anticipation: int  # ta: how far ahead the selector looks
    selector_memory: int        # tm: how far behind
    placements: tuple           # ((delta, gamma), ...)
    name: str = ""

    @property
    def selector_window(self) -> int:
        return self.selector_anticipation + self.selector_memory + 1

    def pattern_poly(self):
        """Value shift caused by a unit carry, as a Laurent polynomial."""
        if not self.placements:
            return laurent([])
        lo = min(d for d, _ in self.placements)
        hi = max(d for d, _ in self.placements)
        coeffs = [0] * (hi - lo + 1)
        for delta, gamma in self.placements:
            coeffs[hi - delta] += gamma
        return laurent(coeffs, lo)

    def window(self) -> tuple:
        """(t, r): the least anticipation and memory covering every read."""
        ta, tm = self.selector_anticipation, self.selector_memory
        return (max([0] + [ta - delta for delta, _ in self.placements]),
                max([0] + [tm + delta for delta, _ in self.placements]))

    def reads(self, t: int) -> list:
        """(window index where the sub-window starts, gamma) per placement,
        in windows with anticipation t."""
        return [(t + delta - self.selector_anticipation, gamma)
                for delta, gamma in self.placements]

    def shifted(self, h: int) -> "CarryRule":
        """Selector conjugated by digit shift -h (same placements)."""
        inner = self.selector

        def selector(sub, _inner=inner, _h=h):
            return _inner(tuple(d + _h for d in sub))

        return CarryRule(selector, self.selector_anticipation,
                         self.selector_memory, self.placements,
                         name=f"{self.name} shifted by {h}")

    def negated(self) -> "CarryRule":
        inner = self.selector

        def selector(sub, _inner=inner):
            return -_inner(tuple(-d for d in sub))

        return CarryRule(selector, self.selector_anticipation,
                         self.selector_memory, self.placements,
                         name=f"{self.name} negated")


@dataclass(frozen=True)
class LocalRule:
    """A verified sliding-window digit-set conversion, in carry form.

    ``carry`` is the rule's :class:`CarryRule`; a table of Phi, as read
    from a table-form file, is the carry rule q = Phi - centre over the
    whole window, placed at (0, 1).  ``selector_table`` holds q for every
    sub-window of the selector, indexed by the sub-window's base-|A| code,
    msd first, with the least digit as code 0 (``None`` above
    ``DEFAULT_TABLE_BUDGET`` entries).  ``window_fn`` is Phi, a closure
    built per rule by ``_carry_rule``, so two rules are equal only when
    they are one rule.
    """

    input_alphabet: Alphabet
    output_alphabet: Alphabet
    anticipation: int  # t
    memory: int        # r
    window_fn: Callable
    carry: CarryRule = field(repr=False, compare=False)
    name: str = ""
    selector_table: Optional[tuple] = field(default=None, repr=False,
                                            compare=False)

    @property
    def window_length(self) -> int:
        return self.anticipation + self.memory + 1

    @property
    def selector_table_size(self) -> int:
        """Entries of the selector table: one per sub-window."""
        return self.input_alphabet.size ** self.carry.selector_window

    def phi(self, window) -> int:
        """Output digit for one window (msd-first tuple of length p)."""
        return self.window_fn(tuple(window))

    def to_json(self) -> dict:
        """The rule in carry form, whichever form it was read from; a
        selector table above ``DEFAULT_TABLE_BUDGET`` entries is refused
        with ``LimitExceededError`` before any entry is computed."""
        cr, size = self.carry, self.selector_table_size
        if size > DEFAULT_TABLE_BUDGET:
            raise LimitExceededError(f"rule {self.name!r} needs a selector "
                                     f"table of {size} entries, above "
                                     f"{DEFAULT_TABLE_BUDGET}", entries=size)
        return {
            "name": self.name,
            "anticipation": self.anticipation,
            "memory": self.memory,
            "input_alphabet": self.input_alphabet.to_json(),
            "output_alphabet": self.output_alphabet.to_json(),
            "carry": {
                "selector_anticipation": cr.selector_anticipation,
                "selector_memory": cr.selector_memory,
                "placements": [list(pl) for pl in cr.placements],
                "selector_table": {
                    " ".join(map(str, sub)): cr.selector(sub)
                    for sub in itertools.product(
                        list(self.input_alphabet),
                        repeat=cr.selector_window)
                },
            },
        }


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
    centre over the whole window, placed at (0, 1).

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

    def selector(sub, _tab=sel_table):
        return _tab[tuple(sub)]

    carry = CarryRule(selector, sa, sm, placements, name=data.get("name", ""))
    if any(not 0 <= i0 <= t + r + 1 - carry.selector_window
           for i0, _ in carry.reads(t)):
        raise RuleFileError("a carry placement reads outside the window")
    q = tuple(sel_table[w] for w in itertools.product(
        in_alpha, repeat=carry.selector_window))
    return _carry_rule(carry, in_alpha, out_alpha, t, r, q)


def derive_local_rule(carry: CarryRule, base: BaseSpec,
                      input_alphabet: Alphabet,
                      output_alphabet: Alphabet) -> LocalRule:
    """Turn a carry rule into a checked LocalRule.

    Checks, in order: the placement pattern represents 0 in the base (so
    the conversion preserves values); the window parameters (t, r) cover
    every read; all outputs stay inside ``output_alphabet``; the all-zero
    window maps to 0.  The selector is tabulated once, over its |A|**sw
    sub-windows, and closure is proved from that table by the exact sweep
    of :func:`closure_range`; a window is enumerated only to name one that
    escapes.  A selector table above ``DEFAULT_TABLE_BUDGET`` entries is
    not built, and closure is then checked on ``SAMPLE_COUNT`` random
    windows.
    """
    if not reduce_mod_base(carry.pattern_poly(), base).is_zero:
        raise PatternNotMultipleError(
            f"carry placements {carry.placements} do not represent 0 in "
            f"base {base.describe()}")
    t, r = carry.window()
    p = t + r + 1
    q = _tabulate(carry, input_alphabet)
    rule = _carry_rule(carry, input_alphabet, output_alphabet, t, r, q)
    if q is None:
        _refuse_escape(rule, _sampled_windows(list(input_alphabet), p))
    elif any(x not in output_alphabet for x in closure_range(rule)):
        _refuse_escape(rule, itertools.product(input_alphabet, repeat=p))
    zero = rule.window_fn((0,) * p)
    if zero != 0:
        raise ZeroNotFixedError(f"all-zero window maps to {zero}, expected 0")
    return rule


def _tabulate(carry: CarryRule, alphabet: Alphabet) -> Optional[tuple]:
    """The selector on every sub-window over the alphabet, in code order;
    ``None`` above ``DEFAULT_TABLE_BUDGET`` entries."""
    if alphabet.size ** carry.selector_window > DEFAULT_TABLE_BUDGET:
        return None
    return tuple(map(carry.selector, itertools.product(
        alphabet, repeat=carry.selector_window)))


def _carry_rule(carry: CarryRule, in_alpha: Alphabet, out_alpha: Alphabet,
                t: int, r: int, selector_table: Optional[tuple],
                name: Optional[str] = None) -> LocalRule:
    """The LocalRule of a carry rule, and the one place its Phi is built:
    z_j plus the placed carries, read from the selector table when there
    is one, and from the selector otherwise."""
    width = carry.selector_window
    if selector_table is None:
        def window_fn(window, _sel=carry.selector, _reads=carry.reads(t)):
            # window[i] holds the digit at position j + t - i
            out = window[t]
            for i0, gamma in _reads:
                out += gamma * _sel(window[i0:i0 + width])
            return out
    else:
        size = in_alpha.size
        # a sub-window's code counts from the least digit m: the code of
        # its digits d, read in base |A|, minus the code of (m, ..., m)
        offset = in_alpha.m * sum(size ** k for k in range(width))

        def window_fn(window, _q=selector_table, _reads=carry.reads(t)):
            out = window[t]
            for i0, gamma in _reads:
                code = 0
                for d in window[i0:i0 + width]:
                    code = code * size + d
                out += gamma * _q[code - offset]
            return out

    return LocalRule(in_alpha, out_alpha, t, r, window_fn, carry=carry,
                     selector_table=selector_table,
                     name=carry.name if name is None else name)


def closure_range(rule: LocalRule) -> tuple:
    """Exact (least, greatest) output of a rule over all windows.

    Reads the rule's selector table q.  Phi(w) = w[t] + sum of gamma *
    q(sub-window at i0) is swept across the p window positions, msd
    first.  The state after position s is the code of the last sw digits
    read, holding the least and the greatest partial sum over the digits
    before them; position s adds the centre digit when s = t and
    gamma * q when a placement's sub-window ends at s.  That is p *
    |A|**sw steps where enumerating the windows costs |A|**p calls of Phi.
    """
    a, cr, q = rule.input_alphabet, rule.carry, rule.selector_table
    size, width, t = a.size, cr.selector_window, rule.anticipation
    reads = cr.reads(t)
    if not reads:  # Phi is the centre digit
        return a.m, a.M
    n = len(q)
    block = n // size

    def advance(values, pick):
        # a state at s has one predecessor per digit leaving the window:
        # those whose last sw - 1 digits are its first sw - 1
        best = map(pick, *(values[x * block:(x + 1) * block]
                           for x in range(size)))
        return [v for v in best for _ in range(size)]

    lo = hi = None
    for s in range(width - 1, rule.window_length):
        gain = [0] * n
        if s == max(t, width - 1):  # the centre digit, at power s - t
            run = size ** (s - t)
            gain = [d for d in a for _ in range(run)] * (n // (run * size))
        for i0, gamma in reads:
            if i0 + width - 1 == s:
                gain = [g + gamma * x for g, x in zip(gain, q)]
        if lo is None:
            lo = hi = gain
        else:
            lo = list(map(add, advance(lo, min), gain))
            hi = list(map(add, advance(hi, max), gain))
    return min(lo), max(hi)


def _sampled_windows(letters: list, p: int):
    """SAMPLE_COUNT random windows of p digits, from a fixed seed."""
    rng = random.Random(0xC0FFEE)
    for _ in range(SAMPLE_COUNT):
        yield tuple(rng.choice(letters) for _ in range(p))


def _refuse_escape(rule: LocalRule, windows) -> None:
    """Raise OutputEscapesAlphabetError for the first of ``windows`` that
    Phi maps outside the output alphabet."""
    alphabet = rule.output_alphabet
    for w in windows:
        out = rule.window_fn(w)
        if out not in alphabet:
            raise OutputEscapesAlphabetError(
                f"window {w} maps to {out}, outside {alphabet}",
                window=list(w), output=out)


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
    for d in ds.digits:
        if d not in rule.input_alphabet:
            raise DigitOutOfAlphabetError(
                f"digit {d} outside input alphabet {rule.input_alphabet}",
                digit=d)
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


def carries(rule: LocalRule, ds: DigitString) -> dict:
    """Per-position selector values q_j (for tracing)."""
    cr = rule.carry
    result = {}
    lo = ds.lsd_exponent - cr.selector_anticipation
    hi = ds.msd_exponent + cr.selector_memory
    for j in range(hi, lo - 1, -1):
        sub = tuple(ds.digit_at(j + cr.selector_anticipation - i)
                    for i in range(cr.selector_window))
        q = cr.selector(sub)
        if q:
            result[j] = q
    return result


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
    # codes count from the least digit: the selector table is unchanged
    return _carry_rule(rule.carry.shifted(h), in_alpha, out_alpha,
                       rule.anticipation, rule.memory, rule.selector_table,
                       f"{rule.name} on {in_alpha}")


def negate_rule(rule: LocalRule) -> LocalRule:
    """Mirror the rule through digit negation: Phi~(w) = -Phi(-w)."""
    in_alpha, out_alpha = (rule.input_alphabet.negated(),
                           rule.output_alphabet.negated())
    # negating the digits of a sub-window turns code c into N - 1 - c
    q = rule.selector_table
    if q is not None:
        q = tuple(-x for x in reversed(q))
    return _carry_rule(rule.carry.negated(), in_alpha, out_alpha,
                       rule.anticipation, rule.memory, q,
                       f"{rule.name} negated")


def compose_rules(outer: LocalRule, inner: LocalRule) -> LocalRule:
    """Rule equal to applying ``inner`` first, then ``outer``.

    Window parameters add: t = t_o + t_i, r = r_o + r_i.  The inner
    output alphabet must embed in the outer input alphabet.  As a
    composition of sliding block codes is one, the result is the carry
    rule q = Phi - centre over its whole window, placed at (0, 1); its
    selector is tabulated when the table fits ``DEFAULT_TABLE_BUDGET``.
    """
    if not (outer.input_alphabet.m <= inner.output_alphabet.m
            and inner.output_alphabet.M <= outer.input_alphabet.M):
        raise AlphabetMismatchError(
            f"inner output {inner.output_alphabet} not contained in outer "
            f"input {outer.input_alphabet}")
    t = outer.anticipation + inner.anticipation
    r = outer.memory + inner.memory
    ti = inner.anticipation
    pi = inner.window_length

    def selector(window, _outer=outer, _inner=inner, _t=t):
        mid = []
        for off in range(_outer.anticipation, -_outer.memory - 1, -1):
            i0 = _t - (off + ti)
            mid.append(_inner.phi(window[i0:i0 + pi]))
        return _outer.phi(tuple(mid)) - window[_t]

    carry = CarryRule(selector, t, r, ((0, 1),),
                      name=f"{inner.name} then {outer.name}")
    return _carry_rule(carry, inner.input_alphabet, outer.output_alphabet,
                       t, r, _tabulate(carry, inner.input_alphabet))
