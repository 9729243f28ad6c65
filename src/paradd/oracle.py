"""Independent verification of conversion rules and addition pipelines.

The engine computes digits -- the array kernel (``paradd.kernel``) on
(positions, strings) batches for the sweeps, a conversion's rule as a
one-pass plan (``kernel.Plan``) of its ``facts``, the rule's Phi on the
all-zero window for the zero check -- and this module checks them
against the definition: a conversion must preserve represented values
exactly, keep outputs inside the declared alphabet, and map zero to
zero.  Translation invariance and locality need no check: every output
of ``apply_rule`` is a function of its window alone.  Value preservation
is decided exactly modulo beta's minimal polynomial f: a column of digits
maps to its remainder by one integer product (``_value_form``), in int32
or int64 as a bound on its partial sums allows, or by the scalar
arbitrary-precision test above int64.  The checks read only the input
digits, the output digits and f, never the rule's carries.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adder import AdderPipeline
from .algebra import represents_zero
from .core import BaseSpec, DigitString
from .errors import NotApplicableError, within
from .local import LocalRule
from . import bounds, kernel

DEFAULT_BUDGET = 10 ** 7
DEFAULT_SAMPLES = 10 ** 5

# Sweep sizes are checked against these before anything is allocated.
# At 2-3 * 10**7 strings/s on one CPU, 10**9 strings take most of a minute.
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


@functools.lru_cache(maxsize=1024)
def _value_form(f: tuple, W: int, digit_max: int) -> Optional[np.ndarray]:
    """The d x W matrix V for which V @ c, c a column of W digits msd
    first, is zero exactly when c represents 0 modulo beta's minimal
    polynomial f: column k of V is X**(W-1-k) mod f for monic f of degree
    d, and b**k * (-c)**(W-1-k) for f = b*X + c (b**(W-1) times the
    value).  V is int32 when no partial sum with digits of magnitude up
    to ``digit_max`` reaches 2**31, int64 below 2**63, and None above.
    """
    if f[0] != 1:
        b, c = f
        V = [[b ** k * (-c) ** (W - 1 - k) for k in range(W)]]
    else:
        V, r = [[0] * W for _ in f[1:]], [0] * (len(f) - 2) + [1]
        for k in reversed(range(W)):  # r = X**(W-1-k) mod f, msd first
            for row, x in zip(V, r):
                row[k] = x
            r = [x - r[0] * a for x, a in zip(r[1:] + [0], f[1:])]
    bound = max(1, digit_max) * max(sum(map(abs, row)) for row in V)
    return (np.array(V, dtype=np.int32 if bound < 2 ** 31 else np.int64)
            if bound < 2 ** 63 else None)


def _values(V: np.ndarray, C: np.ndarray) -> np.ndarray:
    """V @ C in V's dtype, or C's if wider."""
    return np.einsum("jk,kn->jn", V, C,
                     dtype=np.promote_types(V.dtype, C.dtype))


def _digit_max(C: np.ndarray) -> int:
    return max(-int(C.min()), int(C.max())) if C.size else 0


def values_zero_batch(C: np.ndarray, base: BaseSpec) -> np.ndarray:
    """Columns of C, position-major coefficients (W positions msd first,
    N strings), that represent the value 0: ``algebra.represents_zero``
    as one product with ``_value_form``, or column by column above int64.
    """
    V = _value_form(base.minimal_poly, len(C), _digit_max(C))
    if V is None:
        return np.array([represents_zero(DigitString(tuple(map(int, col))),
                                         base) for col in C.T], dtype=bool)
    return ~_values(V, C).any(axis=0)


# --- conversion verification ----------------------------------------------


def _failing_strings(Z: np.ndarray, out: np.ndarray, memory: int, alphabet,
                     base: BaseSpec, fixed: int, cache: dict) -> tuple:
    """Columns of ``out``, the image of Z's columns with Z's msd at row
    ``memory``, holding a digit outside the alphabet, and columns whose
    value differs from Z's.  Z's first ``fixed`` rows are constant, and
    their value is read from column 0; ``cache`` keeps the value of the
    other rows, by dtype, for calls on the same rows."""
    lo, hi = int(out.min()), int(out.max())
    outside = () if alphabet.m <= lo and hi <= alphabet.M else (
        np.flatnonzero(((out < alphabet.m) | (out > alphabet.M)).any(axis=0)))
    V = _value_form(base.minimal_poly, len(out), max(-lo, hi, _digit_max(Z)))
    if V is None:
        C = np.negative(out, dtype=np.int64)
        C[memory:memory + len(Z)] += Z
        return outside, np.flatnonzero(~values_zero_batch(C, base))
    Vz = V[:, memory:memory + len(Z)]
    if V.dtype not in cache:
        cache[V.dtype] = _values(Vz[:, fixed:], Z[fixed:])
    value = cache[V.dtype] + _values(Vz[:, :fixed], Z[:fixed, :1])
    return outside, np.flatnonzero((_values(V, out) != value).any(axis=0))


def _check_block(plan: kernel.Plan, rule: LocalRule, base: BaseSpec,
                 D: np.ndarray, start: int, span: int, found: dict,
                 fixed: int, cache: dict) -> None:
    """Alphabet closure and value preservation for D's columns, strings
    numbered from ``start``, under the rule's one-pass ``plan``: of each
    ``span`` numbers, the first 10 failing strings of each check go to
    ``found[(number // span, check)]``."""
    out = plan.run(D)
    for j, cols in enumerate(_failing_strings(
            D, out, rule.memory, rule.output_alphabet, base, fixed, cache)):
        ranges = (start + np.asarray(cols, dtype=np.int64)) // span
        for r in np.unique(ranges).tolist() if len(cols) else ():
            kept = found.setdefault((r, j), [])
            kept += [{"input": D[:, i].tolist(), "output": out[:, i].tolist()}
                     for i in cols[ranges == r][:10 - len(kept)].tolist()]


def _blocks(S: int, m: int, L: int, dtype):
    """(first code, constant rows, block, cache) for the strings of length
    L over {m .. m+S-1} in code order: each prefix in turn above all S**k
    suffixes, for the least k with S**k >= _BLOCK, or k = L."""
    k = next(k for k in range(1, L + 1) if S ** k >= _BLOCK or k == L)
    D = np.empty((L, S ** k), dtype=dtype)
    D[L - k:] = np.indices((S,) * k, dtype=dtype).reshape(k, -1) + m
    cache = {}
    for p, prefix in enumerate(itertools.product(range(m, m + S),
                                                 repeat=L - k)):
        D[:L - k] = np.array(prefix, dtype=dtype)[:, None]
        yield p * S ** k, L - k, D, cache


# Witnesses are kept per range of this many string codes: 10 per check.
_CHUNK = 1 << 19
# Strings per block, at least; samples go in blocks of _BLOCK.  The verify
# workload's 24 sweeps to length 6 on one CPU of a 2-CPU Xeon (2 MB L2 per
# core), best of 6: 0.73 s at 2**10, 0.38 s at 2**11-2**13, 0.46 at 2**15.
_BLOCK = 1 << 12


@_timed
def verify_conversion(rule: LocalRule, base: BaseSpec, max_len: int = 6,
                      *, budget: int = DEFAULT_BUDGET,
                      samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> VerificationReport:
    """Check a conversion rule on every input string up to a length budget.

    Lengths whose exhaustive count S**L fits the remaining budget are
    enumerated completely, in code order, as (L, strings) blocks in the
    dtype of the rule's one-pass plan (``_blocks``), which runs them; if
    the budget runs out before ``max_len``, ``samples`` random strings of
    length ``max_len`` are checked instead.  Also checks that Phi maps the all-zero window to
    0.  Sizes that check no string or pass ``MAX_BUDGET`` or
    ``MAX_BATCH_DIGITS`` are refused.
    """
    S, m = rule.input_alphabet.size, rule.input_alphabet.m
    within("max_len", max_len, 1, MAX_BATCH_DIGITS)
    within("samples x max_len", samples * max_len, 0, MAX_BATCH_DIGITS)
    # with no samples, a budget below S would check no string at all
    within("budget", budget, 0 if samples else S, MAX_BUDGET)
    report = VerificationReport(subject=rule.name or "rule")
    if rule.phi((0,) * rule.window_length) != 0:
        report.fail("zero-to-zero")
    report.note("zero-to-zero")

    plan = kernel.Plan([rule.facts])
    dtype, spent, groups = plan.dtype, 0, []
    for L in range(1, max_len + 1):
        spent += S ** L
        if spent > budget:
            break
        report.exhaustive_lengths.append(L)
        groups.append((S ** L, _CHUNK, _blocks(S, m, L, dtype)))
    if len(report.exhaustive_lengths) < max_len and samples:
        D = np.ascontiguousarray(np.random.default_rng(seed).integers(
            m, m + S, size=(samples, max_len), dtype=np.int64).T, dtype=dtype)
        groups.append((samples, samples, ((i, 0, D[:, i:i + _BLOCK], {})
                                          for i in range(0, samples, _BLOCK))))
        report.sampled = samples
    for n, span, blocks in groups:  # witnesses by range, then by check
        found = {}
        for start, fixed, block, cache in blocks:
            _check_block(plan, rule, base, block, start, span, found, fixed,
                         cache)
        for (_, j), witnesses in sorted(found.items()):
            for witness in witnesses:
                report.fail(("output-alphabet", "value-preservation")[j],
                            **witness)
        report.instances_checked += n
        report.note("alphabet-closure", n)
        report.note("value-preservation", n)
    return report


# --- addition verification -------------------------------------------------


@_timed
def verify_addition(pipeline: AdderPipeline, n_pairs: int = 10 ** 4,
                    max_len: int = 8, *, seed: int = 0) -> VerificationReport:
    """Random addition closure: digits stay in A, values are exact.

    When the alphabet is mixed-sign, subtraction pairs are checked too.
    Pairs are drawn as rows, checked as columns; sizes below 1 or past
    ``MAX_BATCH_DIGITS`` are refused.
    """
    within("n_pairs", n_pairs, 1, MAX_BATCH_DIGITS)
    within("max_len", max_len, 1, MAX_BATCH_DIGITS)
    within("n_pairs x max_len", n_pairs * max_len, 1, MAX_BATCH_DIGITS)
    system, alphabet = pipeline.system, pipeline.system.alphabet
    report = VerificationReport(subject=f"addition over {alphabet} "
                                        f"base {system.base.describe()}")
    nprng = np.random.default_rng(seed)
    X, Y = (np.ascontiguousarray(nprng.integers(
                alphabet.m, alphabet.M + 1, size=(n_pairs, max_len),
                dtype=np.int64).T) for _ in range(2))
    jobs = [("add", X + Y)]
    if alphabet.m < 0 < alphabet.M:
        jobs.append(("subtract", X - Y))
    for label, Z in jobs:
        out = kernel.run_plan(pipeline, Z)
        failing = _failing_strings(Z, out, pipeline.effective_window[1],
                                   alphabet, system.base, 0, {})
        for check, cols in zip(("closure", "value"), failing):
            for i in cols[:10]:
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
    top, bot = rule.phi((Lam,) * p), rule.phi((lam,) * p)
    if top in (lam, Lam):
        report.fail("top-window", output=top)
    if bot == Lam:
        report.fail("bottom-window-top", output=bot)
    if lam != 0 and bot == lam:
        report.fail("bottom-window-bottom", output=bot)
    report.instances_checked = 2
    report.note("boundary", 2)
    return report
