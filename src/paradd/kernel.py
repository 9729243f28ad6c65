"""Whole-array pass-plan kernel: one compiled rule form, one runner.

Output digit j of a rule is z_j + sum(gamma * q_{j-delta}) over its
placements (delta, gamma); the carry q_i is the rule's selector table
spread over digits (``LocalRule.digit_table``) at the base-|A| code of
the sw digits the selector reads around position i, every k-th for
stride k.  A pass is then a few shifted slices, one ``take`` and one
shifted add per placement; a rule read from a table of Phi has the same
form, with q = Phi - centre on its whole window, at (0, 1).
Arrays hold digits msd first along the first axis: a 1-D string, or a
2-D batch of shape (positions, strings) whose every digit row is one
contiguous block.  A ``run_plan``/``apply`` call's digits are int8, or a
wider signed dtype where its static bound (``_dtype``) needs; codes are
int16, or int32 above 2**15 table entries.  Importing this module loads numpy.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache

import numpy as np

from .adder import MAP, AdderPipeline
from .core import DigitString
from .errors import DigitOutOfAlphabetError, LimitExceededError
from .local import DEFAULT_TABLE_BUDGET, LocalRule

# threads for run_plan's slices; they start on first use, not on import
_POOL = ThreadPoolExecutor(max_workers=os.cpu_count())


@lru_cache(maxsize=256)
def compiled(rule: LocalRule) -> tuple:
    """(carry table, least digit, |A|, digits read, stride, placements as
    (window index of the sub-window, gamma), reach = sum |gamma| * max |q|)
    once per rule; the table is ``rule.digit_table(1)``, q on each
    |A|**sw digits the selector reads, in the narrowest dtype holding
    reach.  Rules are equal only when they are one rule, so the cache
    never serves one rule's table to another.

    A rule whose selector spans more than ``local.DEFAULT_TABLE_BUDGET``
    digit sub-windows (``selector_table_size``), such as ``pisot-:100``'s,
    is refused with ``LimitExceededError``, as its rule file is.
    """
    size = rule.selector_table_size
    if size > DEFAULT_TABLE_BUDGET:
        raise LimitExceededError(
            f"rule {rule.name!r} needs a selector table of {size} entries, "
            f"above {DEFAULT_TABLE_BUDGET}", entries=size)
    a, cr, q = rule.input_alphabet, rule.carry, rule.digit_table(1)
    placements = cr.reads(rule.anticipation)
    reach = sum(abs(g) for _, g in placements) * max(map(abs, q))
    # a table of zeros places nothing, so no gamma need fit its dtype
    return (np.array(q, dtype=np.min_scalar_type(-reach - 1)), a.m, a.size,
            cr.selector_window, cr.stride, placements if reach else [],
            reach)


def _dtype(rules, lo: int, hi: int) -> np.dtype:
    """The narrowest signed dtype holding every digit and code of a run
    of ``rules`` on digits in [lo, hi]: each pass adds at most its reach
    to the unclamped digits, and clamps them into its rule's input
    alphabet A, coded 0 .. |A| - 1."""
    bound = max([max(-lo, hi) + sum(compiled(rule)[6] for rule in rules)]
                + [max(-a.m, a.M, a.M - a.m)
                   for a in (rule.input_alphabet for rule in rules)])
    return np.min_scalar_type(-bound - 1)


def _pass(rule: LocalRule, Z: np.ndarray) -> np.ndarray:
    """One pass of a rule, its carries read from Z clamped into the
    rule's input alphabet, in Z's dtype.

    Each output digit is z_j, unclamped so that the clipped excess
    carries over, plus the placed carries.  The output is t + r digits
    wider than Z: output index ``rule.memory`` lines up with Z's msd.
    """
    q_table, m, size, width, k, placements, _ = compiled(rule)
    t, r = rule.anticipation, rule.memory
    pad = t + r
    n, rest = len(Z), Z.shape[1:]
    P = np.full((n + 2 * pad,) + rest, -m, dtype=Z.dtype)
    np.clip(Z, m, m + size - 1, out=P[pad:pad + n])
    if m:
        P[pad:pad + n] -= m  # codes count from the least digit
    span = n + 2 * pad - (width - 1) * k
    code = P[:span].astype(np.int16 if q_table.size <= 1 << 15 else np.int32)
    for j in range(k, width * k, k):
        code *= size
        code += P[j:j + span]
    q = q_table.take(code)
    out = np.zeros((n + pad,) + rest, dtype=Z.dtype)
    out[r:r + n] = Z
    for i0, gamma in placements:
        out += gamma * q[i0:i0 + n + pad]
    return out


def _check(Z: np.ndarray, lo: int, hi: int, where: str) -> None:
    """Refuse the first digit of Z outside [lo, hi], as the scalar path."""
    if Z.size and (Z.min() < lo or Z.max() > hi):
        d = int(Z[(Z < lo) | (Z > hi)][0])
        raise DigitOutOfAlphabetError(f"digit {d} outside {where}", digit=d)


def _digits(Z, lo: int, hi: int, rules, where: str) -> np.ndarray:
    """Z in ``_dtype(rules, lo, hi)``; its first digit outside [lo, hi],
    one beyond int32 included, is refused by ``_check`` before any table
    is built.  A sequence converts through int32."""
    if not isinstance(Z, np.ndarray):
        try:
            Z = np.array(Z, dtype=np.int32)
        except OverflowError:  # _check names the first digit out of range
            Z = np.array(Z, dtype=object)
    _check(Z, lo, hi, where)
    return Z.astype(_dtype(rules, lo, hi), copy=False)


def apply(rule: LocalRule, Z) -> np.ndarray:
    """``local.apply_rule`` on every string along the first axis of Z,
    lsd at exponent 0; the output covers exponents msd + r .. -t."""
    a = rule.input_alphabet
    return _pass(rule, _digits(Z, a.m, a.M, [rule], f"input alphabet {a}"))


def _run(pipeline: AdderPipeline, Z: np.ndarray) -> np.ndarray:
    # a top (bottom) pass's rule takes {m..M+1} ({m-1..M}), its clamp range
    for kind, rule in pipeline.plan:
        if kind == MAP:
            a = rule.input_alphabet
            _check(Z, a.m, a.M, f"input alphabet {a}")
        Z = _pass(rule, Z)
    return Z


def shard_cuts(width: int, shards: int) -> list:
    """Split output positions [0, width) into ``shards`` contiguous cuts."""
    return [(width * i // shards, width * (i + 1) // shards)
            for i in range(shards)]


def plan_slice(pipeline: AdderPipeline, Z: np.ndarray, cut) -> np.ndarray:
    """Output positions [a, b) of the plan from digits [a - halo, b) alone.

    Output c reads inputs c - halo .. c only, halo = T + R of
    ``AdderPipeline.effective_window`` (the zero padding past the ends
    adds nothing, since every rule maps the zero window to 0), so the
    slice's outputs equal those of the run over all digits.
    """
    a, b = cut
    lo = max(0, a - sum(pipeline.effective_window))
    return _run(pipeline, Z[lo:b])[a - lo:b - lo]


def _slice_on(cpu: int, pipeline: AdderPipeline, Z: np.ndarray, cut):
    # Measured on a 2-CPU host, the scheduler woke every slice's thread on
    # the caller's CPU and left the other idle (10**6 digits, base -2: 10.5
    # ms on one thread, 7.0 on two unpinned, 4.0 on two pinned).
    os.sched_setaffinity(0, {cpu})
    return plan_slice(pipeline, Z, cut)


def run_plan(pipeline: AdderPipeline, Z, workers: int = 1) -> np.ndarray:
    """The whole pass plan on the digits along the first axis of Z.

    Z's digits must lie in ``pipeline.input_range``; its lsd sits at
    exponent 0, and the output, T + R digits wider, ends at exponent -T
    for (T, R) = ``pipeline.effective_window``.  ``workers`` > 1 cuts the
    output into slices (``plan_slice``) run on threads, as numpy releases
    the interpreter lock inside array operations.
    """
    lo, hi = pipeline.input_range
    Z = _digits(Z, lo, hi, [rule for _, rule in pipeline.plan],
                f"reducible range [{lo}, {hi}]")
    if workers == 1:
        return _run(pipeline, Z)
    cuts = shard_cuts(len(Z) + sum(pipeline.effective_window), workers)
    cpus = sorted(os.sched_getaffinity(0))
    parts = [_POOL.submit(_slice_on, cpus[k % len(cpus)], pipeline, Z, cut)
             for k, cut in enumerate(cuts)]
    wait(parts)  # no slice still runs when one raises
    return np.concatenate([part.result() for part in parts])


def add_strings(x: DigitString, y: DigitString, pipeline: AdderPipeline,
                negate: bool = False) -> DigitString:
    """x + y, or x - y with ``negate``, through the plan; normalized.

    The array form of ``adder.add``/``subtract`` without a trace: the
    same digits and the same ``DigitOutOfAlphabetError``s.
    """
    alphabet = pipeline.system.alphabet
    rules = [rule for _, rule in pipeline.plan]
    X, Y = (_digits(s.digits, alphabet.m, alphabet.M, rules,
                    f"alphabet {alphabet}") for s in (x, y))
    msd = max(x.msd_exponent, y.msd_exponent)
    lsd = min(x.lsd_exponent, y.lsd_exponent)
    Z = np.zeros(msd - lsd + 1, _dtype(rules, *pipeline.input_range))
    for D, s in ((X, x), (-Y if negate else Y, y)):
        Z[msd - s.msd_exponent:][:D.size] += D
    out = run_plan(pipeline, Z)
    nonzero = np.flatnonzero(out)
    if not nonzero.size:
        return DigitString.zero()
    first, last = int(nonzero[0]), int(nonzero[-1])
    digits = out[first:last + 1]
    _check(digits, alphabet.m, alphabet.M, f"alphabet {alphabet}")
    return DigitString(tuple(digits.tolist()),
                       lsd - pipeline.effective_window[0] + len(out) - 1
                       - last)
