"""Whole-array pass-plan kernel: one compiled plan per pipeline, one runner.

A pass reads the record the list runner reads too, ``local.PassFacts``:
a few comparisons and shifted slices give the class codes, then one
``take`` and one shifted add per placement.  Passes in a row compose into
one sliding block code, so a :class:`Plan`, built once per pipeline
(``AdderPipeline.kernel_plan``), reads each group of passes whose window
table fits ``TABLE_ENTRIES`` by one ``take`` and runs every other pass on
its classes; :func:`run_plan` runs it in slices of ``BLOCK_DIGITS``
outputs at most.  Arrays hold digits msd first along the first axis: a
1-D string, or a 2-D batch of shape (positions, strings) whose every
digit row is one contiguous block.  A plan's digits and classes are int8,
or a wider signed dtype where its static bound needs; codes of more
classes are int16, or int32 above 2**15 table entries.  Digits cross in
and out of Python in one C copy each way (int8 plans): bytes in 0..255,
``struct`` format ``b`` (signed bytes) in -128..127.  Importing this
loads numpy.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np

from .adder import AdderPipeline
from .core import DigitString
from .errors import DigitOutOfAlphabetError
from .local import PassFacts

# threads for run_plan's slices; they start on first use, not on import
_POOL = ThreadPoolExecutor(max_workers=os.cpu_count())

# Outputs per run_plan slice: on a 2-CPU host (2 MiB L2 each), 2**16 to
# 2**18 beat no slices 1.0-1.5x at 10**6 digits, and 2**13 lost 1.2-1.7x.
BLOCK_DIGITS = 1 << 17

# Entries per window table at most, since every Plan builds its tables: on
# a 2-CPU host, 3/2 {0..4} builds a 9**3 and a 7**3 table in 0.1 ms; 2**16
# would fuse it into one 9**5 table built in 4 ms, four times a 3 * 10**5-
# digit run.
TABLE_ENTRIES = 1 << 12


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


def _read_table(lo: int, table: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The passes of a window ``table`` on Z: each output at the code of
    its w = table.ndim digits less ``lo``, msd first, in base |I| = S."""
    n, halo, S = len(Z), table.ndim - 1, table.shape[0]
    P = np.empty((n + 2 * halo,) + Z.shape[1:], np.int16)
    P[:halo] = P[halo + n:] = -lo  # digit 0 past the ends
    np.subtract(Z, lo, out=P[halo:halo + n], dtype=np.int16)  # I holds 0
    code = P[:n + halo].copy()
    for j in range(1, halo + 1):  # Horner's rule: codes < S ** w fit
        code *= S
        code += P[j:j + n + halo]
    return table.take(code)


def _window_table(group, dtype) -> partial:
    """``group``'s passes as one :func:`_read_table`, their table built by
    running them on every window of w digits of their input range I."""
    (f, _), w = group[0], 1 + sum(p.t + p.r for p, _ in group)
    shape = (f.hi - f.lo + 1,) * w
    D = (np.indices(shape).reshape(w, -1) + f.lo).astype(dtype)
    for p, table in group:
        D = _run_pass(p, table, D)
    return partial(_read_table, f.lo,  # a copy, so that the batch D is freed
                   D[w - 1].reshape(shape).copy())


class Plan:
    """The ``passes``, each with its table as an array, run in turn on
    digits in the first one's range [lo, hi]; the output is (T, R) =
    ``window`` digits wider, each of its digits read from ``halo`` + 1 =
    T + R + 1 inputs.  ``dtype`` is the narrowest signed one holding every
    digit and class: each pass adds at most its reach to the digits, and
    reads their classes 0 .. len(cuts).  ``run`` takes the ``steps``: each
    greedy group of passes in a row whose window table fits, |I| ** (t +
    r + 1) <= ``TABLE_ENTRIES`` for I its proven input range and (t, r)
    its summed window, is one table, built here; any other pass runs on
    its classes."""

    def __init__(self, passes):
        self.passes = [(p, np.array(p.table, np.min_scalar_type(-p.reach - 1)))
                       for p in passes]
        self.lo, self.hi = lo, hi = passes[0].lo, passes[0].hi
        self.where = f"reducible range [{lo}, {hi}]"
        self.window = (sum(p.t for p in passes), sum(p.r for p in passes))
        self.halo = sum(self.window)
        bound = max([max(-lo, hi) + sum(p.reach for p in passes)]
                    + [len(p.cuts) for p in passes])
        self.dtype = np.min_scalar_type(-bound - 1)
        groups, fits = [], lambda g: (g[0][0].hi - g[0][0].lo + 1) ** (
            1 + sum(p.t + p.r for p, _ in g)) <= TABLE_ENTRIES
        for pt in self.passes:
            if not (groups and fits(groups[-1] + [pt])):
                groups.append([])
            groups[-1].append(pt)
        self.steps = [_window_table(g, self.dtype) if fits(g)
                      else partial(_run_pass, *g[0]) for g in groups]

    def run(self, Z: np.ndarray) -> np.ndarray:
        """Every step on the unchecked digits of Z, in ``dtype``, lsd at
        exponent 0; the output covers exponents msd + R .. -T."""
        for step in self.steps:
            Z = step(Z)
        return Z


def _check(Z: np.ndarray, lo: int, hi: int, where: str) -> None:
    """Refuse the first digit of Z outside [lo, hi], as the scalar path."""
    if Z.size and (Z.min() < lo or Z.max() > hi):
        d = int(Z[(Z < lo) | (Z > hi)][0])
        raise DigitOutOfAlphabetError(f"digit {d} outside {where}", digit=d)


def _digits(Z, lo: int, hi: int, dtype, where: str) -> np.ndarray:
    """Z in ``dtype``, once ``_check`` finds no digit outside [lo, hi],
    one beyond ``dtype`` included.  A sequence converts in C: where [lo,
    hi] lies in 0..255 into bytes, read as int8 in place or else widened
    after the check, in -128..127 into signed bytes, else into dtype."""
    if not isinstance(Z, np.ndarray):
        try:
            if 0 <= lo and hi <= 255:
                Z = np.frombuffer(bytearray(Z), np.uint8)
            elif -128 <= lo and hi <= 127:
                Z = np.frombuffer(struct.Struct(f"{len(Z)}b").pack(*Z), np.int8)
            else:
                Z = np.array(Z, dtype=dtype)
        except (ValueError, TypeError, OverflowError, struct.error):
            Z = np.array(Z, dtype=object)  # _check names the bad digit
    _check(Z, lo, hi, where)  # uint8 widens before any arithmetic
    view = hi <= 127 and Z.dtype == np.uint8 and dtype == np.int8
    return Z.view(dtype) if view else Z.astype(dtype, copy=False)


def shard_cuts(width: int, shards: int) -> list:
    """Split output positions [0, width) into ``shards`` contiguous cuts."""
    return [(width * i // shards, width * (i + 1) // shards)
            for i in range(shards)]


def plan_slice(pipeline: AdderPipeline, Z: np.ndarray, cut) -> np.ndarray:
    """Output positions [a, b) of the plan from digits [a - halo, b) alone,
    which are checked and converted as ``_digits`` does.

    Output c reads inputs c - halo .. c only, halo = T + R of
    ``AdderPipeline.effective_window`` (the zero padding past the ends adds
    nothing, since every rule maps the zero window to 0), so the slice's
    outputs equal those of the run over all digits.
    """
    plan, (a, b) = pipeline.kernel_plan, cut
    lo = max(0, a - plan.halo)
    Z = _digits(Z[lo:b], plan.lo, plan.hi, plan.dtype, plan.where)
    return plan.run(Z)[a - lo:b - lo]


def _slices(pipeline: AdderPipeline, Z, out: np.ndarray, cuts, cpu=None):
    # plan_slice into out on each cut it pulls from cuts.  Unpinned, a
    # 2-CPU host woke every thread on the caller's CPU (10**6 digits, -2:
    # 10.5 ms on one thread, 7.0 on two, 4.0 on two pinned).
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    for a, b in cuts:
        out[a:b] = plan_slice(pipeline, Z, (a, b))


def run_plan(pipeline: AdderPipeline, Z, workers: int = 1) -> np.ndarray:
    """The whole pass plan on the digits along the first axis of Z.

    Z's digits must lie in ``pipeline.input_range``; its lsd sits at
    exponent 0, and the output, T + R digits wider, ends at exponent -T
    for (T, R) = ``pipeline.effective_window``.  The caller, or each of
    ``workers`` > 1 threads, runs slices (``plan_slice``) of ``BLOCK_DIGITS``
    outputs at most as it pulls them; numpy releases the interpreter lock.
    """
    plan = pipeline.kernel_plan  # its tables build here, before any worker
    if not isinstance(Z, np.ndarray):  # an array is checked slice by slice
        Z = _digits(Z, plan.lo, plan.hi, plan.dtype, plan.where)
    width = len(Z) + plan.halo
    each = -(-width // (workers * BLOCK_DIGITS))  # slices per worker
    cuts = iter(shard_cuts(width, workers * each))  # next() holds the GIL
    out = np.empty((width,) + Z.shape[1:], plan.dtype)
    if workers > 1:
        cpus = sorted(os.sched_getaffinity(0))
        runs = [_POOL.submit(_slices, pipeline, Z, out, cuts,
                             cpus[k % len(cpus)]) for k in range(workers)]
        wait(runs)  # no slice still runs when one raises
        if any(run.exception() for run in runs):  # name the first bad digit
            _check(Z, plan.lo, plan.hi, plan.where)
        for run in runs:
            run.result()
    else:
        _slices(pipeline, Z, out, cuts)
    return out


def to_ints(out: np.ndarray, lo: int, hi: int):
    """``out``'s digits, in [lo, hi]: bytes where [lo, hi] lies in 0..255,
    a tuple from one ``struct`` call in -128..127, else a list."""
    if 0 <= lo and hi <= 255:  # int8 digits in 0..127 are their own bytes
        return (out if out.itemsize == 1 else out.astype(np.uint8)).tobytes()
    return (struct.Struct(f"{out.size}b").unpack(out.astype("b", copy=False))
            if -128 <= lo and hi <= 127 else out.tolist())


def add_strings(x: DigitString, y: DigitString, pipeline: AdderPipeline,
                negate: bool = False) -> DigitString:
    """x + y, or x - y with ``negate``, through the plan; normalized.

    The array form of ``adder.add``/``subtract`` without a trace: the
    same digits and the same ``DigitOutOfAlphabetError``s.  Each operand
    converts and is checked on its own, x first (``_digits``), and is
    added into its place in Z; the sum's digits return as ``to_ints``.
    """
    plan, alphabet = pipeline.kernel_plan, pipeline.system.alphabet
    X, Y = (_digits(s.digits, alphabet.m, alphabet.M, plan.dtype,
                    f"alphabet {alphabet}") for s in (x, y))
    msd = max(x.msd_exponent, y.msd_exponent)
    lsd = min(x.lsd_exponent, y.lsd_exponent)
    Z = np.zeros(msd - lsd + 1, plan.dtype)
    for D, s in ((X, x), (-Y if negate else Y, y)):
        Z[msd - s.msd_exponent:][:D.size] += D
    out = run_plan(pipeline, Z)  # A + A, or A - A: the plan's input range
    nonzero = out != 0
    if not nonzero.any():
        return DigitString.zero()
    first, end = nonzero.argmax(), len(out) - int(nonzero[::-1].argmax())
    digits = out[first:end]
    _check(digits, alphabet.m, alphabet.M, f"alphabet {alphabet}")
    return DigitString(tuple(to_ints(digits, alphabet.m, alphabet.M)),
                       lsd - plan.window[0] + len(out) - end)
