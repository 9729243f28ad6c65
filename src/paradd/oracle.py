"""Independent verification of conversion rules and addition pipelines.

The engine computes digits -- the array kernel (``paradd.kernel``) on
(positions, strings) batches for the sweeps, the scalar
``local.apply_rule`` for the zero check -- and this module checks them
against the definition: a conversion must preserve represented values
exactly, keep outputs inside the declared alphabet, and map zero to
zero.  Translation invariance and locality need no check: every output
of ``apply_rule`` is a function of its window alone.  Value preservation
is decided by exact divisibility by beta's minimal polynomial (vectorized
with numpy, with automatic fallback to the scalar arbitrary-precision
test when 64-bit growth bounds would be exceeded).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adder import AdderPipeline
from .algebra import represents_zero
from .core import BaseSpec, DigitString
from .errors import NotApplicableError, within
from .local import LocalRule, apply_rule
from . import bounds, kernel

DEFAULT_BUDGET = 10 ** 7
DEFAULT_SAMPLES = 10 ** 5

# Sweep sizes are checked against these before anything is allocated.
# Enumeration codes are int32, and 10**9 strings take minutes to check.
MAX_BUDGET = 10 ** 9
# Digits per batch: 625 000 pairs of 8 digits on -1+i peaked at 0.87 GB.
MAX_BATCH_DIGITS = 5 * 10 ** 6


@dataclass
class VerificationReport:
    """Outcome of one verification run."""

    subject: str
    instances_checked: int = 0
    exhaustive_lengths: list = field(default_factory=list)
    sampled: int = 0
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def note(self, check: str, count: int = 1) -> None:
        self.checks[check] = self.checks.get(check, 0) + count

    def fail(self, check: str, **witness) -> None:
        self.failures.append({"check": check, **witness})

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "instances_checked": self.instances_checked,
            "exhaustive_lengths": self.exhaustive_lengths,
            "sampled": self.sampled,
            "checks": self.checks,
            "failures": self.failures[:20],
            "elapsed_s": self.elapsed_s,
            "instances_per_s": (self.instances_checked / self.elapsed_s
                                if self.elapsed_s else None),
        }


def _timed(verify):
    """Record the wall time of each call in its report's ``elapsed_s``."""
    @functools.wraps(verify)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        report = verify(*args, **kwargs)
        report.elapsed_s = time.perf_counter() - start
        return report
    return timed


# --- vectorized exact value test -----------------------------------------


def _growth_bound(col_max, divisor) -> int:
    """Upper bound on any intermediate during the batch zero-value test."""
    if divisor[0] != 1:
        b, c = divisor
        acc = 0
        for j, x in enumerate(col_max):
            acc = acc * abs(c) + x * b ** j
        return acc
    col_max = list(col_max)
    d = len(divisor) - 1
    tail = [abs(x) for x in divisor[1:]]
    for i in range(max(0, len(col_max) - d)):
        lead = col_max[i]
        for j in range(d):
            col_max[i + 1 + j] += lead * tail[j]
    return max(col_max) if col_max else 0


def values_zero_batch(C: np.ndarray, base: BaseSpec) -> np.ndarray:
    """Columns of C, position-major coefficients (W positions msd first,
    N strings), that represent the value 0; C is left as it is.

    The batched form of ``algebra.reduce_mod_base``: the same division
    by the minimal polynomial on int64 rows, or that scalar test column
    by column when ``_growth_bound`` says int64 could overflow.
    """
    return _zero_columns(C.copy(), base)


def _zero_columns(C: np.ndarray, base: BaseSpec) -> np.ndarray:
    """``values_zero_batch``, dividing C in place when it is int64."""
    divisor = base.minimal_poly
    W, N = C.shape
    row_max = np.abs(C).max(axis=1).tolist() if N else [0] * W
    if _growth_bound(row_max, divisor) >= 2 ** 62:
        return np.array([represents_zero(DigitString(tuple(map(int, col))),
                                         base) for col in C.T], dtype=bool)
    if divisor[0] != 1:
        b, c = divisor
        acc = np.zeros(N, dtype=np.int64)
        for j in range(W):
            acc = acc * (-c) + C[j] * b ** j
        return acc == 0
    d = len(divisor) - 1
    if W <= d:
        return (C == 0).all(axis=0)
    R = C.astype(np.int64, copy=False)
    tail = divisor[1:]
    for i in range(W - d):
        lead = R[i]
        for j in range(d):
            R[i + 1 + j] -= lead * tail[j]
    return (R[W - d:] == 0).all(axis=0)


# --- conversion verification ----------------------------------------------


def _failing_strings(Z: np.ndarray, out: np.ndarray, memory: int,
                     alphabet, base: BaseSpec) -> tuple:
    """Columns of ``out``, the image of Z's columns with Z's msd at row
    ``memory``, holding a digit outside the alphabet, and columns whose
    value differs from Z's; at most 10 of each."""
    bad = ((out < alphabet.m) | (out > alphabet.M)).any(axis=0)
    C = np.negative(out, dtype=np.int64)
    C[memory:memory + len(Z)] += Z
    ok = _zero_columns(C, base)
    return np.flatnonzero(bad)[:10], np.flatnonzero(~ok)[:10]


def _check_batch(rule: LocalRule, base: BaseSpec, D: np.ndarray,
                 report: VerificationReport) -> None:
    """Alphabet closure + exact value preservation for D's columns,
    checked in chunks of ``_CHUNK_DIGITS`` digits."""
    found = {"output-alphabet": [], "value-preservation": []}
    step = max(1, _CHUNK_DIGITS // len(D))
    for start in range(0, D.shape[1], step):
        part = D[:, start:start + step]
        out = kernel.apply(rule, part)
        for witnesses, cols in zip(found.values(), _failing_strings(
                part, out, rule.memory, rule.output_alphabet, base)):
            witnesses += [{"input": part[:, i].tolist(),
                           "output": out[:, i].tolist()} for i in cols]
    for check, witnesses in found.items():  # the first 10 of each
        for witness in witnesses[:10]:
            report.fail(check, **witness)
    n = D.shape[1]
    report.instances_checked += n
    report.note("alphabet-closure", n)
    report.note("value-preservation", n)


# Strings per enumerated int32 batch; enumerating per chunk read no faster.
_CHUNK = 1 << 19
# Digits per checked chunk, about 10 900 strings of 6 digits: on a 2-CPU host
# (2 MB L2 per core) 2**12-2**16 such strings per chunk all beat 2**19.
_CHUNK_DIGITS = 1 << 16


@_timed
def verify_conversion(rule: LocalRule, base: BaseSpec, max_len: int = 6,
                      *, budget: int = DEFAULT_BUDGET,
                      samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> VerificationReport:
    """Check a conversion rule on every input string up to a length budget.

    Lengths whose exhaustive count S**L fits the remaining budget are
    enumerated completely, as (L, strings) int32 batches; if the budget
    runs out before ``max_len``, ``samples`` random strings of length
    ``max_len`` are checked instead.  Also checks zero stability.  Sizes
    that check no string or pass ``MAX_BUDGET`` or ``MAX_BATCH_DIGITS``
    raise ``LimitExceededError``.
    """
    S = rule.input_alphabet.size
    m = rule.input_alphabet.m
    within("max_len", max_len, 1, MAX_BATCH_DIGITS)
    within("samples x max_len", samples * max_len, 0, MAX_BATCH_DIGITS)
    # with no samples, a budget below S would check no string at all
    within("budget", budget, 0 if samples else S, MAX_BUDGET)
    report = VerificationReport(subject=rule.name or "rule")
    nprng = np.random.default_rng(seed)

    if not apply_rule(rule, DigitString.zero()).is_zero:
        report.fail("zero-to-zero")
    report.note("zero-to-zero")

    spent = 0
    for L in range(1, max_len + 1):
        total = S ** L
        if spent + total > budget:
            break
        report.exhaustive_lengths.append(L)
        for start in range(0, total, _CHUNK):
            codes = np.arange(start, min(start + _CHUNK, total),
                              dtype=np.int32)
            D = np.empty((L, len(codes)), dtype=np.int32)
            for row in D[::-1]:  # lsd first: code = sum D[k] S**(L-1-k)
                np.divmod(codes, S, out=(codes, row))
            D += m
            _check_batch(rule, base, D, report)
        spent += total
    if len(report.exhaustive_lengths) < max_len and samples:
        D = nprng.integers(m, m + S, size=(samples, max_len), dtype=np.int64)
        _check_batch(rule, base, np.ascontiguousarray(D.T), report)
        report.sampled = samples
    return report


# --- addition verification -------------------------------------------------


@_timed
def verify_addition(pipeline: AdderPipeline, n_pairs: int = 10 ** 4,
                    max_len: int = 8, *, seed: int = 0,
                    subtraction: bool = None) -> VerificationReport:
    """Random addition closure: digits stay in A, values are exact.

    When the alphabet is mixed-sign, subtraction pairs are checked too
    (override with ``subtraction=``).  Pairs are drawn as rows, checked
    as columns; sizes below 1 or past ``MAX_BATCH_DIGITS`` are refused.
    """
    within("n_pairs", n_pairs, 1, MAX_BATCH_DIGITS)
    within("max_len", max_len, 1, MAX_BATCH_DIGITS)
    within("n_pairs x max_len", n_pairs * max_len, 1, MAX_BATCH_DIGITS)
    system = pipeline.system
    alphabet = system.alphabet
    report = VerificationReport(subject=f"addition over {alphabet} "
                                        f"base {system.base.describe()}")
    nprng = np.random.default_rng(seed)
    X, Y = (np.ascontiguousarray(nprng.integers(
                alphabet.m, alphabet.M + 1, size=(n_pairs, max_len),
                dtype=np.int64).T) for _ in range(2))
    if subtraction is None:
        subtraction = alphabet.m < 0 < alphabet.M
    jobs = [("add", X + Y)]
    if subtraction:
        jobs.append(("subtract", X - Y))
    for label, Z in jobs:
        out = kernel.run_plan(pipeline, Z)
        closure, value = _failing_strings(
            Z, out, pipeline.effective_window[1], alphabet, system.base)
        for check, cols in (("closure", closure), ("value", value)):
            for i in cols:
                report.fail(f"{label}-{check}", x=X[:, i].tolist(),
                            y=Y[:, i].tolist(), result=out[:, i].tolist())
        report.note(f"{label}-closure", n_pairs)
        report.note(f"{label}-value", n_pairs)
        report.instances_checked += n_pairs
    return report


# --- structural properties ------------------------------------------------------


@_timed
def verify_congruence(rule: LocalRule, base: BaseSpec) -> VerificationReport:
    """Constant windows: Phi(x,...,x) must be congruent to x mod |f(1)|.

    Conversion output and input represent the same value, and on constant
    strings the value difference per position is (x - Phi(x^p)) times a
    unit sum; divisibility by |f(1)| is forced for algebraic-integer
    bases.  Not applicable to rational bases.
    """
    report = VerificationReport(subject=f"congruence {rule.name}")
    f1 = bounds.f1_of(base)
    report.checks["f1"] = f1
    p = rule.window_length
    for x in rule.input_alphabet:
        y = rule.phi((x,) * p)
        if (x - y) % f1 != 0:
            report.fail("constant-congruence", digit=x, output=y, modulus=f1)
        report.instances_checked += 1
    report.note("constant-congruence", rule.input_alphabet.size)
    return report


@_timed
def verify_boundary(rule: LocalRule, base: BaseSpec) -> VerificationReport:
    """Extreme constant windows cannot map to extreme digits (real beta>1).

    With Lam/lam the top/bottom of the input alphabet: Phi(Lam^p) avoids
    both lam and Lam, Phi(lam^p) avoids Lam, and avoids lam too unless
    lam = 0.
    """
    if not base.is_real_gt1:
        raise NotApplicableError(
            "boundary conditions apply to real bases > 1 only",
            kind=base.kind)
    report = VerificationReport(subject=f"boundary {rule.name}")
    lam, Lam = rule.input_alphabet.m, rule.input_alphabet.M
    p = rule.window_length
    top = rule.phi((Lam,) * p)
    bot = rule.phi((lam,) * p)
    if top in (lam, Lam):
        report.fail("top-window", output=top)
    if bot == Lam:
        report.fail("bottom-window-top", output=bot)
    if lam != 0 and bot == lam:
        report.fail("bottom-window-bottom", output=bot)
    report.instances_checked = 2
    report.note("boundary", 2)
    return report
