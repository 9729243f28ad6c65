"""Whole-array pass-plan kernel: one compiled plan per pipeline, one runner.

A pass reads the record the list runner reads too, ``adder.PassFacts``:
a few comparisons and shifted slices give the class codes, then one
``take`` and one shifted add per placement.  A :class:`Plan` holds a
pipeline's passes, built once (``AdderPipeline.kernel_plan``).  Arrays
hold digits msd first along the first axis: a 1-D string, or a 2-D batch
of shape (positions, strings) whose every digit row is one contiguous
block.  A plan's digits and classes are int8, or a wider signed dtype
where its static bound needs; codes of more classes are int16, or int32
above 2**15 table entries.  Digits in 0..255 cross in and out of Python
as bytes.  Importing this module loads numpy.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .adder import AdderPipeline, PassFacts
from .core import DigitString
from .errors import DigitOutOfAlphabetError

# threads for run_plan's slices; they start on first use, not on import
_POOL = ThreadPoolExecutor(max_workers=os.cpu_count())


def _run_pass(f: PassFacts, table: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The pass ``f`` on Z, in Z's dtype, its carries read from ``table``.
    Each output digit is z_j, whole, so that any excess past the rule's
    alphabet carries over, plus the placed carries.  The output is t + r
    digits wider: index r lines up with Z's msd."""
    k, r, pad, cuts = f.stride, f.r, f.t + f.r, f.cuts
    n, rest = len(Z), Z.shape[1:]
    codes = np.int16 if table.size <= 1 << 15 else np.int32
    C = np.full((n + 2 * pad,) + rest, f.zero, dtype=Z.dtype)
    classes = C[pad:pad + n]  # per digit, the count of cuts at or below
    np.greater_equal(Z, cuts[0], out=classes)
    for cut in cuts[1:]:  # a bool array's bytes read as int8 0 or 1
        classes += np.greater_equal(Z, cut).view(np.int8)
    span = n + 2 * pad - (f.width - 1) * k
    code = C[:span]
    for j in range(k, f.width * k, k):
        code = np.multiply(code, len(cuts) + 1, dtype=codes)
        code += C[j:j + span]
    q = table.take(code)
    out = np.zeros((n + pad,) + rest, dtype=Z.dtype)
    out[r:r + n] = Z
    for i0, gamma in f.placements:
        out += gamma * q[i0:i0 + n + pad]
    return out


class Plan:
    """The ``passes``, each with its table as an array, run in turn on
    digits in the first one's range [lo, hi]; the output is (T, R) =
    ``window`` digits wider, each of its digits read from ``halo`` + 1 =
    T + R + 1 inputs.  ``dtype`` is the narrowest signed one holding every
    digit and class: each pass adds at most its reach to the digits, and
    reads their classes 0 .. len(cuts)."""

    def __init__(self, passes):
        self.passes = [(p, np.array(p.table, np.min_scalar_type(-p.reach - 1)))
                       for p in passes]
        self.lo, self.hi = lo, hi = passes[0].lo, passes[0].hi
        self.window = (sum(p.t for p in passes), sum(p.r for p in passes))
        self.halo = sum(self.window)
        bound = max([max(-lo, hi) + sum(p.reach for p in passes)]
                    + [len(p.cuts) for p in passes])
        self.dtype = np.min_scalar_type(-bound - 1)

    def run(self, Z: np.ndarray) -> np.ndarray:
        """Every pass on the unchecked digits of Z, in Z's dtype, lsd at
        exponent 0; the output covers exponents msd + R .. -T."""
        for p, table in self.passes:
            Z = _run_pass(p, table, Z)
        return Z


def _check(Z: np.ndarray, lo: int, hi: int, where: str) -> None:
    """Refuse the first digit of Z outside [lo, hi], as the scalar path."""
    if Z.size and (Z.min() < lo or Z.max() > hi):
        d = int(Z[(Z < lo) | (Z > hi)][0])
        raise DigitOutOfAlphabetError(f"digit {d} outside {where}", digit=d)


def _digits(Z, lo: int, hi: int, dtype, where: str) -> np.ndarray:
    """Z in ``dtype``, once ``_check`` finds no digit outside [lo, hi],
    one beyond ``dtype`` included.  A sequence converts straight into it,
    or, where [lo, hi] lies in 0..255, into bytes, in C, and widens."""
    if not isinstance(Z, np.ndarray):
        try:
            Z = (np.frombuffer(bytearray(Z), np.uint8) if 0 <= lo and hi <= 255
                 else np.array(Z, dtype=dtype))
        except (ValueError, TypeError, OverflowError):  # a digit that fits
            Z = np.array(Z, dtype=object)  # no byte or dtype: _check names it
    _check(Z, lo, hi, where)
    return Z.astype(dtype, copy=False)  # uint8 widens before any arithmetic


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
    plan, (a, b) = pipeline.kernel_plan, cut
    lo = max(0, a - plan.halo)
    return plan.run(Z[lo:b])[a - lo:b - lo]


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
    plan = pipeline.kernel_plan
    Z = _digits(Z, plan.lo, plan.hi, plan.dtype,
                f"reducible range [{plan.lo}, {plan.hi}]")
    if workers == 1:
        return plan.run(Z)
    cuts = shard_cuts(len(Z) + plan.halo, workers)
    cpus = sorted(os.sched_getaffinity(0))
    parts = [_POOL.submit(_slice_on, cpus[k % len(cpus)], pipeline, Z, cut)
             for k, cut in enumerate(cuts)]
    wait(parts)  # no slice still runs when one raises
    return np.concatenate([part.result() for part in parts])


def add_strings(x: DigitString, y: DigitString, pipeline: AdderPipeline,
                negate: bool = False) -> DigitString:
    """x + y, or x - y with ``negate``, through the plan; normalized.

    The array form of ``adder.add``/``subtract`` without a trace: the
    same digits and the same ``DigitOutOfAlphabetError``s.  Both operands
    convert in one call and one check, x's digits first (``_digits``);
    the sum's digits return through ``bytes`` where A lies in 0..255.
    """
    plan, alphabet = pipeline.kernel_plan, pipeline.system.alphabet
    XY = _digits(x.digits + y.digits, alphabet.m, alphabet.M, plan.dtype,
                 f"alphabet {alphabet}")
    X, Y = XY[:len(x.digits)], XY[len(x.digits):]
    msd = max(x.msd_exponent, y.msd_exponent)
    lsd = min(x.lsd_exponent, y.lsd_exponent)
    Z = np.zeros(msd - lsd + 1, plan.dtype)
    for D, s in ((X, x), (-Y if negate else Y, y)):
        Z[msd - s.msd_exponent:][:D.size] += D
    out = plan.run(Z)  # A + A, or A - A, lies in the plan's input range
    nonzero = out != 0
    if not nonzero.any():
        return DigitString.zero()
    first, end = nonzero.argmax(), len(out) - int(nonzero[::-1].argmax())
    digits = out[first:end]
    _check(digits, alphabet.m, alphabet.M, f"alphabet {alphabet}")
    digits = (bytes(digits.astype(np.uint8))
              if 0 <= alphabet.m and alphabet.M <= 255 else digits.tolist())
    return DigitString(tuple(digits), lsd - plan.window[0] + len(out) - end)
