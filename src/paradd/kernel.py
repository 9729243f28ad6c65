"""Whole-array pass-plan kernel: one compiled rule form, one runner.

Output digit j of a rule is z_j + sum(gamma * q_{j-delta}) over its
placements (delta, gamma); the carry q_i is the rule's selector table
(``LocalRule.selector_table``) at the base-|A| code of the sub-window
around position i.  A pass is then a few shifted slices, one ``take``
and one shifted add per placement.  A rule with only a ``table`` (a table-form
rule file) compiles as q = Phi - center on its whole window, at (0, 1).
Arrays hold int32 digits, msd first, along the first axis: a 1-D string,
or a 2-D batch of shape (positions, strings) whose every digit row is one
contiguous block.  Importing this module loads numpy.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import lru_cache

import numpy as np

from .adder import MAP, TOP_PASS, AdderPipeline
from .core import DigitString
from .errors import DigitOutOfAlphabetError, LimitExceededError
from .local import DEFAULT_TABLE_BUDGET, LocalRule

# threads for run_plan's slices; they start on first use, not on import
_POOL = ThreadPoolExecutor(max_workers=os.cpu_count())


@lru_cache(maxsize=256)
def compiled(rule: LocalRule) -> tuple:
    """(carry table, least digit, |A|, sub-window length, placements as
    (window index of the sub-window, gamma)), once per rule: a carry rule's
    ``selector_table`` as it is, a table-form rule's Phi minus its centre.

    A table above ``local.DEFAULT_TABLE_BUDGET`` entries is refused with
    ``LimitExceededError`` before anything is tabulated.
    """
    size = rule.selector_table_size
    if size > DEFAULT_TABLE_BUDGET:
        raise LimitExceededError(
            f"rule {rule.name!r} needs a selector table of {size} entries, "
            f"above {DEFAULT_TABLE_BUDGET}", entries=size)
    a, t, cr = rule.input_alphabet, rule.anticipation, rule.carry
    if cr is not None:  # within the budget, derivation built the table
        width, q, placements = (cr.selector_window, rule.selector_table,
                                cr.reads(t))
    else:
        width = rule.window_length
        q = [rule.phi(w) - w[t] for w in itertools.product(a, repeat=width)]
        placements = [(0, 1)]
    return np.array(q, dtype=np.int32), a.m, a.size, width, placements


def _pass(rule: LocalRule, Z: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """One pass of a rule, its carries read from Z clamped into [lo, hi].

    Each output digit is z_j, unclamped so that the clipped excess
    carries over, plus the placed carries.  The output is t + r digits
    wider than Z: output index ``rule.memory`` lines up with Z's msd.
    """
    q_table, m, size, width, placements = compiled(rule)
    t, r = rule.anticipation, rule.memory
    pad = t + r
    n, rest = len(Z), Z.shape[1:]
    P = np.full((n + 2 * pad,) + rest, -m, dtype=np.int32)
    np.clip(Z, lo, hi, out=P[pad:pad + n])
    if m:
        P[pad:pad + n] -= m  # codes count from the least digit
    span = n + 2 * pad - width + 1
    code = P[:span].astype(np.intp)
    for j in range(1, width):
        code *= size
        code += P[j:j + span]
    q = q_table.take(code)
    out = np.zeros((n + pad,) + rest, dtype=np.int32)
    out[r:r + n] = Z
    for i0, gamma in placements:
        out += gamma * q[i0:i0 + n + pad]
    return out


def _check(Z: np.ndarray, lo: int, hi: int, where: str) -> None:
    """Refuse the first digit of Z outside [lo, hi], as the scalar path."""
    if Z.size and (Z.min() < lo or Z.max() > hi):
        d = int(Z[(Z < lo) | (Z > hi)][0])
        raise DigitOutOfAlphabetError(f"digit {d} outside {where}", digit=d)


def _int32(Z, lo: int, hi: int, where: str) -> np.ndarray:
    """Z as int32 digits, refusing its first digit outside [lo, hi] as
    ``_check`` does, one beyond int32 included.  An array is checked
    before the cast; a sequence converts straight to int32."""
    if not isinstance(Z, np.ndarray):
        try:
            Z = np.array(Z, dtype=np.int32)
        except OverflowError:  # _check names the first digit out of range
            Z = np.array(Z, dtype=object)
    _check(Z, lo, hi, where)
    return Z.astype(np.int32, copy=False)


def apply(rule: LocalRule, Z) -> np.ndarray:
    """``local.apply_rule`` on every string along the first axis of Z,
    lsd at exponent 0; the output covers exponents msd + r .. -t."""
    a = rule.input_alphabet
    return _pass(rule, _int32(Z, a.m, a.M, f"input alphabet {a}"), a.m, a.M)


def _run(pipeline: AdderPipeline, Z: np.ndarray) -> np.ndarray:
    m, M = pipeline.system.alphabet.m, pipeline.system.alphabet.M
    for kind, rule in pipeline.plan:
        Z = (apply(rule, Z) if kind == MAP else
             _pass(rule, Z, m, M + 1) if kind == TOP_PASS else
             _pass(rule, Z, m - 1, M))
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
    Z = _int32(Z, lo, hi, f"reducible range [{lo}, {hi}]")
    for _, rule in pipeline.plan:  # an oversized table is refused here
        compiled(rule)
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
    X, Y = (_int32(s.digits, alphabet.m, alphabet.M, f"alphabet {alphabet}")
            for s in (x, y))
    msd = max(x.msd_exponent, y.msd_exponent)
    lsd = min(x.lsd_exponent, y.lsd_exponent)
    Z = np.zeros(msd - lsd + 1, dtype=np.int32)
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
