"""Benchmark: fixed-pass parallel addition vs a sequential reference.

Every output digit of the fixed pass plan depends only on a bounded
window of input digits, ``AdderPipeline.effective_window`` = (T, R).  So
the output can be cut into slices, one per worker process, each computed
by running the whole plan once on its input slice plus a halo of T + R
digits; no data moves between passes.  The sequential reference runs the
same plan over the whole string in one process.  Both produce the same
digits, which the benchmark asserts.  Workers are capped at the CPUs
this process may run on, and short inputs are not sharded at all.

As an independent cross-check, a classical sequential ripple-carry adder
(digit d = v mod a with a propagating carry, available for integer and
rational bases) recomputes the sum, and the two values are compared
exactly with ``algebra.values_equal``, in about a second or less at
10**6 digits.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Optional

from .adder import MAP, TOP_PASS, AdderPipeline
from .algebra import values_equal
from .core import BaseSpec, DigitString, NumerationSystem
from .errors import UnsupportedBaseError, WorkerCountError


# --- flat-table rule application over plain lists --------------------------


def _flat_table(rule):
    """(flat list indexed by window code, S, m, p) for fast scanning."""
    import itertools

    S = rule.input_alphabet.size
    m = rule.input_alphabet.m
    p = rule.window_length
    flat = [0] * (S ** p)
    for code, w in enumerate(itertools.product(range(m, m + S), repeat=p)):
        flat[code] = rule.window_fn(w)
    return flat, S, m, p


def _apply_pass(digits, table):
    """One rule pass over a plain digit list (msd first).

    The output is p - 1 = anticipation + memory digits longer than the
    input; output index ``rule.memory`` lines up with the input msd.
    """
    flat, S, m, p = table
    pad = [0] * (p - 1)
    P = pad + digits + pad
    width = len(digits) + p - 1
    roll = S ** (p - 1)
    code = 0
    for i in range(p):
        code = code * S + (P[i] - m)
    out = []
    append = out.append
    for c in range(width):
        append(flat[code])
        if c + 1 < width:
            code = (code % roll) * S + (P[c + p] - m)
    return out


def _run_plan(tables, alphabet, digits):
    """The whole pass plan, sequentially, on a plain digit list."""
    m, M = alphabet
    z = digits
    for kind, rule, table in tables:
        if kind == MAP:
            z = _apply_pass(z, table)
            continue
        lo, hi = (m, M + 1) if kind == TOP_PASS else (m - 1, M)
        u = [min(max(d, lo), hi) for d in z]
        v = [d - c for d, c in zip(z, u)]
        w = _apply_pass(u, table)
        r = rule.memory  # output index of the input msd position
        for i, x in enumerate(v):
            if x:
                w[r + i] += x
        z = w
    return z


# --- sharding the plan by locality -------------------------------------------

# Shortest input slice, in digits, worth a worker process.  On the 2-CPU
# host it was measured on, a 2-worker call costs 30-65 ms more than half
# a 1-worker call (fork, result pickling; more with a bigger parent heap),
# and the cheapest plan (base -2, two passes) scans about 1 us per digit,
# so 2 workers first won at 60 000-120 000 digits.  The constant keeps a
# margin above that, so that a sharded call does not lose to one worker.
MIN_SHARD_DIGITS = 100_000


def worker_count(requested: int, length: int) -> int:
    """Worker processes that ``run_pipeline_flat`` uses for ``requested``.

    At most the CPUs this process may run on, and at most one per
    ``MIN_SHARD_DIGITS`` input digits; 1 means no process is started.
    A request below 1 is refused before any process starts.
    """
    if requested < 1:
        raise WorkerCountError(
            f"worker count must be at least 1, got {requested}",
            workers=requested)
    return max(1, min(requested, len(os.sched_getaffinity(0)),
                      length // MIN_SHARD_DIGITS))


def _shard_cuts(width: int, shards: int):
    """Split output positions [0, width) into ``shards`` contiguous cuts."""
    return [(width * i // shards, width * (i + 1) // shards)
            for i in range(shards)]


def _plan_slice(state, cut):
    """Output positions [a, b) of the plan from digits [a - halo, b) alone.

    Output index c depends on input digits c - halo .. c only, with
    halo = T + R from ``AdderPipeline.effective_window`` (every rule maps
    the zero window to 0, so the zero padding past either end of the
    input adds nothing).  The outputs in [a, b) never read past either
    end of the slice, so they equal those of the run over all digits.
    """
    tables, alphabet, halo, digits = state
    a, b = cut
    lo = max(0, a - halo)
    return _run_plan(tables, alphabet, digits[lo:b])[a - lo:b - lo]


_SHARD: tuple = ()  # _plan_slice state inside a pool worker


def _init_shard_worker(state) -> None:
    global _SHARD
    _SHARD = state


def _shard_task(job):
    cut, cpu = job
    # A forked worker starts on its parent's CPU, and the kernel was seen
    # to leave two busy workers sharing one CPU for half a second while
    # the other idled; so each worker takes a CPU of its own.
    os.sched_setaffinity(0, {cpu})
    return _plan_slice(_SHARD, cut)


def run_pipeline_flat(pipeline: AdderPipeline, digits, workers: int = 1):
    """Run the pass plan on an lsd-exponent-0 digit list; msd first.

    Returns the output digit list (msd first, least significant digit at
    exponent -(total anticipation)).  ``workers`` > 1 cuts the output
    into one slice per worker (see ``worker_count``); each worker runs the
    whole plan once on its input slice plus a halo of the plan's window.
    """
    tables = [(kind, rule, _flat_table(rule)) for kind, rule in pipeline.plan]
    alphabet = (pipeline.system.alphabet.m, pipeline.system.alphabet.M)
    z = list(digits)
    shards = worker_count(workers, len(z))
    if shards == 1:
        return _run_plan(tables, alphabet, z)
    t, r = pipeline.effective_window
    state = (tables, alphabet, t + r, z)
    jobs = zip(_shard_cuts(len(z) + t + r, shards),
               sorted(os.sched_getaffinity(0)))
    # fork: the workers inherit the tables and the digits from this
    # process; only the cuts and the output slices are pickled.
    with get_context("fork").Pool(shards, _init_shard_worker,
                                  (state,)) as pool:
        parts = pool.map(_shard_task, jobs)
    out = []
    for part in parts:
        out.extend(part)
    return out


# --- classical sequential ripple adder -------------------------------------


def ripple_digit_sum(z, base: BaseSpec):
    """Sequential normalization of a digit-sum list (msd first, lsd at 0).

    Classical division with remainder: at each position take d = v mod a
    and push the carry one position up.  Works for integer and rational
    bases with the carry staying bounded; digits out in {0..a-1}.
    Returns an msd-first digit list with lsd exponent 0 (grown at the top
    as needed).
    """
    ratio = base.integer_ratio
    if ratio is None:
        raise UnsupportedBaseError(
            f"no sequential ripple adder for base {base.describe()}")
    a, b, neg = ratio
    out = []
    carry = 0
    for v in reversed(z):  # lsd first
        v += carry
        d = v % a
        out.append(d)
        carry = b * (v - d) // a
        if neg:
            carry = -carry
    guard = 0
    while carry != 0:
        d = carry % a
        out.append(d)
        carry = b * (carry - d) // a
        if neg:
            carry = -carry
        guard += 1
        if guard > 64:
            raise UnsupportedBaseError(
                "ripple carry did not terminate for this digit range")
    out.reverse()
    return out


def values_equal_mod_primes(x_digits, x_lsd, y_digits, y_lsd,
                            base: BaseSpec, seed: int = 1,
                            n_primes: int = 3) -> bool:
    """Exact value equality of two digit lists (msd first).

    Kept only under its old name and signature for the benchmark scripts
    that still call it: ``seed`` and ``n_primes`` are unused, and the next
    change to the benchmark removes the function in favour of
    ``algebra.values_equal``.
    """
    return values_equal(DigitString(tuple(x_digits), x_lsd),
                        DigitString(tuple(y_digits), y_lsd), base)


# --- the benchmark -----------------------------------------------------------


@dataclass
class BenchResult:
    system: NumerationSystem
    length: int
    timings: dict            # requested workers -> seconds (pipeline only)
    workers_used: dict       # requested workers -> processes used
    ripple_seconds: float
    outputs_identical: bool  # across worker counts
    ripple_value_match: Optional[bool]

    @property
    def passed(self) -> bool:
        return self.outputs_identical and self.ripple_value_match is not False

    def to_json(self) -> dict:
        return {
            "system": self.system.to_json(),
            "length": self.length,
            "timings": {str(k): v for k, v in self.timings.items()},
            "workers_used": {str(k): v for k, v in self.workers_used.items()},
            "ripple_seconds": self.ripple_seconds,
            "outputs_identical": self.outputs_identical,
            "ripple_value_match": self.ripple_value_match,
            "passed": self.passed,
        }


def run_benchmark(pipeline: AdderPipeline, length: int = 10 ** 6,
                  worker_counts=(1, 8), seed: int = 7) -> BenchResult:
    """Add two random strings with each worker count; compare everything.

    The single-worker run is the sequential reference; all runs must
    produce identical digits.  For integer and rational bases the
    classical ripple adder recomputes the sum, whose value must equal
    the output's exactly.
    Worker counts below 1 are refused before any work starts.
    """
    used = {w: worker_count(w, length) for w in worker_counts}
    system = pipeline.system
    alphabet = system.alphabet
    rng = random.Random(seed)
    x = [rng.randint(alphabet.m, alphabet.M) for _ in range(length)]
    y = [rng.randint(alphabet.m, alphabet.M) for _ in range(length)]
    z = [a + b for a, b in zip(x, y)]
    timings = {}
    outputs = {}
    for workers in worker_counts:
        t0 = time.perf_counter()
        outputs[workers] = run_pipeline_flat(pipeline, z, workers=workers)
        timings[workers] = time.perf_counter() - t0
    first = outputs[worker_counts[0]]
    identical = all(outputs[w] == first for w in worker_counts[1:])

    ripple_match = None
    ripple_seconds = 0.0
    if system.base.integer_ratio is not None and alphabet.m >= 0:
        t0 = time.perf_counter()
        ripple = ripple_digit_sum(z, system.base)
        ripple_seconds = time.perf_counter() - t0
        total_t = sum(rule.anticipation for _, rule in pipeline.plan)
        ripple_match = values_equal(DigitString(tuple(first), -total_t),
                                    DigitString(tuple(ripple)), system.base)
    return BenchResult(system, length, timings, used, ripple_seconds,
                       identical, ripple_match)
