"""Benchmark: fixed-pass parallel addition vs a sequential reference.

Every output digit of the pass plan depends only on a window of input
digits, ``AdderPipeline.effective_window`` = (T, R), so the array kernel
(``kernel.run_plan``) computes each cache-sized slice of the output from
its input slice plus a halo of T + R digits, on one thread per worker.
The one-worker run is the reference; all runs must agree digit for
digit.  Workers are capped at the CPUs this process may run on, and
short inputs get one.  numpy loads, and the pipeline's kernel plan is
built, only when a function here runs the kernel.

As an independent cross-check, a classical sequential ripple-carry adder
(digit d = v mod a with a propagating carry, available for integer and
rational bases) recomputes the sum, and the two values are compared
exactly with ``algebra.values_equal``, in about a second or less at
10**6 digits.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from .adder import AdderPipeline
from .algebra import values_equal
from .core import BaseSpec, DigitString, NumerationSystem
from .errors import LimitExceededError, UnsupportedBaseError, WorkerCountError
from .expansions import euclid_expansion


# Shortest input, in digits per worker, worth a thread of its own.  With
# run_plan's blocks, on a 2-CPU host (medians of 21 alternated calls), 2
# threads against 1 took 1.1-1.3 of the time at 300 000 to 600 000 digits
# for base -2 {0..2}, 0.9-1.1 at 800 000 and 0.75-0.85 at 10**6; for 3/2
# {0..4}, 1.1-1.2 at 300 000, 0.7-1.0 at 500 000 to 800 000.  So a
# second thread starts at 800 000 digits.
MIN_SHARD_DIGITS = 400_000

# Timed calls per worker count, alternating between the counts after one
# untimed round that pays for thread start and each thread's heap growth;
# a timing is the fastest.  In 40 processes on a 2-CPU host (bases -2,
# 3/2, 10**6 digits), 8 workers over 1 read up to 1.10 as the fastest of
# the first 3 calls, and up to 0.78 as the fastest of 11 after that round.
TIMED_CALLS = 11

# Operand lengths run_benchmark accepts.  At 10**7 digits a `paradd bench`
# process peaked at 872-880 MiB (ru_maxrss; -2 {0..2}, 3/2 {0..4}) and
# took 6-12 s, most of it the exact ripple check, on the 2-CPU host above.
MIN_LENGTH, MAX_LENGTH = 10 ** 3, 10 ** 7

# Digit-passes (length times passes) per call that run_benchmark accepts:
# 10 passes at MAX_LENGTH.  One such call took 0.8-1.0 s on a 2-CPU host,
# so a benchmark's 24 calls take up to half a minute; 101/100 {0..200}
# (200 passes) reaches it at 5 * 10**5 digits.
MAX_DIGIT_PASSES = 10 ** 8


def worker_count(requested: int, length: int) -> int:
    """Worker threads that ``run_pipeline_flat`` uses for ``requested``.

    At most the CPUs this process may run on, and at most one per
    ``MIN_SHARD_DIGITS`` input digits; 1 means the calling thread runs
    the whole plan.  A request below 1 is refused before any work starts.
    """
    if requested < 1:
        raise WorkerCountError(
            f"worker count must be at least 1, got {requested}",
            workers=requested)
    return max(1, min(requested, len(os.sched_getaffinity(0)),
                      length // MIN_SHARD_DIGITS))


def run_pipeline_flat(pipeline: AdderPipeline, digits, workers: int = 1):
    """Run the pass plan on an lsd-exponent-0 digit sequence, msd first.

    Returns the output digits, msd first, least significant digit at
    exponent -(total anticipation): for an array an array of the plan's
    dtype, else ``kernel.to_ints`` on the proven output range
    ``pipeline.ranges[-1]`` (bytes, a tuple or a list of ints).  A
    sequence converts as ``kernel._digits`` does.  The ``worker_count``
    threads pull slices of the output in turn (``kernel.run_plan``).
    """
    from .kernel import np, run_plan, to_ints
    out = run_plan(pipeline, digits, worker_count(workers, len(digits)))
    return out if isinstance(digits, np.ndarray) else \
        to_ints(out, *pipeline.ranges[-1])


# --- classical sequential ripple adder -------------------------------------


def ripple_digit_sum(z, base: BaseSpec):
    """Sequential normalization of a digit-sum list (msd first, lsd at 0).

    Classical division with remainder: at each position take d = v mod a
    and push the carry one position up; the final carry's digits are its
    ``euclid_expansion``.  Works for integer and rational bases; digits
    out in {0..a-1}.  Returns an msd-first digit list with lsd exponent 0
    (grown at the top as needed).
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
    out.reverse()
    tail = euclid_expansion(carry, base)
    return list(tail.digits) + [0] * tail.lsd_exponent + out


def values_equal_mod_primes(x_digits, x_lsd, y_digits, y_lsd,
                            base: BaseSpec, seed: int = 1,
                            n_primes: int = 3) -> bool:
    """Exact value equality of two digit lists (msd first); kept under
    this name for the benchmark scripts, which ``algebra.values_equal``
    will serve once they change.  ``seed`` and ``n_primes`` are unused."""
    return values_equal(DigitString(tuple(x_digits), x_lsd),
                        DigitString(tuple(y_digits), y_lsd), base)


# --- the benchmark -----------------------------------------------------------


@dataclass
class BenchResult:
    system: NumerationSystem
    length: int
    timings: dict            # requested workers -> fastest of TIMED_CALLS s
    workers_used: dict       # requested workers -> threads used
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
    the output's exactly.  The operands are drawn as arrays before any
    timing starts, and each count's timing is the fastest of
    ``TIMED_CALLS`` calls of the plan alone, after one untimed call of
    each count.  Worker counts below 1, lengths outside [MIN_LENGTH,
    MAX_LENGTH] and more than ``MAX_DIGIT_PASSES`` digit-passes (length
    times passes) are refused before anything is allocated.
    """
    used = {w: worker_count(w, length) for w in worker_counts}
    if not MIN_LENGTH <= length <= MAX_LENGTH:
        raise LimitExceededError(
            f"benchmark length must lie in [{MIN_LENGTH}, {MAX_LENGTH}], "
            f"got {length}", length=length, limit=[MIN_LENGTH, MAX_LENGTH])
    work = length * len(pipeline.plan)
    if work > MAX_DIGIT_PASSES:
        raise LimitExceededError(
            f"benchmark of {length} digits through {len(pipeline.plan)} "
            f"passes needs {work} digit-passes per call, above "
            f"{MAX_DIGIT_PASSES}", digit_passes=work, limit=MAX_DIGIT_PASSES)
    import numpy as np
    system = pipeline.system
    alphabet = system.alphabet
    rng = np.random.default_rng(seed)
    x, y = rng.integers(alphabet.m, alphabet.M + 1, (2, length),
                        dtype=np.int32)
    z = x + y
    timings = dict.fromkeys(worker_counts, float("inf"))
    outputs = {}
    for call in range(TIMED_CALLS + 1):
        for workers in worker_counts:
            t0 = time.perf_counter()
            outputs[workers] = run_pipeline_flat(pipeline, z, workers=workers)
            if call:
                timings[workers] = min(timings[workers],
                                       time.perf_counter() - t0)
    first = outputs[worker_counts[0]]
    identical = all(np.array_equal(outputs[w], first)
                    for w in worker_counts[1:])

    ripple_match = None
    ripple_seconds = 0.0
    if system.base.integer_ratio is not None and alphabet.m >= 0:
        digit_sums = z.tolist()
        t0 = time.perf_counter()
        ripple = ripple_digit_sum(digit_sums, system.base)
        ripple_seconds = time.perf_counter() - t0
        total_t = pipeline.effective_window[0]
        ripple_match = values_equal(
            DigitString(tuple(first.tolist()), -total_t),
            DigitString(tuple(ripple)), system.base)
    return BenchResult(system, length, timings, used, ripple_seconds,
                       identical, ripple_match)
