"""Independent verification of conversion rules and addition pipelines.

The engine modules compute digits; this module checks them against the
definition: a conversion must preserve represented values exactly, keep
outputs inside the declared alphabet, commute with translation of the
radix point, and depend only on the declared window.  Value preservation
is decided by exact divisibility by beta's minimal polynomial (vectorized
with numpy for the exhaustive sweeps, with automatic fallback to the
scalar arbitrary-precision test when 64-bit growth bounds would be
exceeded).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adder import MAP, TOP_PASS, AdderPipeline
from .algebra import represents_zero
from .core import BaseSpec, DigitString, normalize
from .errors import NotApplicableError
from .local import LocalRule, apply_rule
from . import bounds

DEFAULT_BUDGET = 10 ** 7
DEFAULT_SAMPLES = 10 ** 5


@dataclass
class VerificationReport:
    """Outcome of one verification run."""

    subject: str
    instances_checked: int = 0
    exhaustive_lengths: list = field(default_factory=list)
    sampled: int = 0
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

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
        }


# --- vectorized rule application ----------------------------------------


def _selector_table(rule: LocalRule):
    """(Qtab, sub_len, i0s/gammas) for numpy application of a carry rule."""
    cr = rule.carry
    m, M = rule.input_alphabet.m, rule.input_alphabet.M
    S = rule.input_alphabet.size
    sub_len = cr.selector_window
    tab = np.empty(S ** sub_len, dtype=np.int64)
    for code, sub in enumerate(itertools.product(range(m, M + 1),
                                                 repeat=sub_len)):
        tab[code] = cr.selector(sub)
    meta = []
    for delta, gamma in cr.placements:
        i0 = rule.anticipation + delta - cr.selector_anticipation
        meta.append((i0, gamma))
    return tab, sub_len, meta


def batch_apply(rule: LocalRule, Z: np.ndarray) -> np.ndarray:
    """Apply a carry-backed rule to every row of a digit matrix.

    ``Z`` has one digit string per row, most significant digit first,
    least significant digit at exponent 0.  Returns the (wider) output
    matrix covering exponents  msd+r .. -t.
    """
    if rule.carry is None:
        # no selector structure: fall back to the scalar engine
        out = []
        width = Z.shape[1] + rule.anticipation + rule.memory
        for row in Z:
            ds = DigitString(tuple(int(d) for d in row), 0)
            res = apply_rule(rule, ds)
            digits = [res.digit_at(e)
                      for e in range(Z.shape[1] - 1 + rule.memory,
                                     -rule.anticipation - 1, -1)]
            out.append(digits)
        return np.array(out, dtype=np.int64).reshape(len(Z), width)
    t, r = rule.anticipation, rule.memory
    m = rule.input_alphabet.m
    S = rule.input_alphabet.size
    N, L = Z.shape
    tab, sub_len, meta = _selector_table(rule)
    pad = t + r
    P = np.zeros((N, L + 2 * pad), dtype=np.int64)
    P[:, pad:pad + L] = Z
    width = L + t + r
    out = np.empty((N, width), dtype=np.int64)
    powers = [S ** (sub_len - 1 - j) for j in range(sub_len)]
    for c in range(width):
        acc = P[:, c + t].copy()
        for i0, gamma in meta:
            code = np.zeros(N, dtype=np.int64)
            for j in range(sub_len):
                code += (P[:, c + i0 + j] - m) * powers[j]
            acc += gamma * tab[code]
        out[:, c] = acc
    return out


def batch_reduce(pipeline: AdderPipeline, Z: np.ndarray):
    """Run the full pass plan on a digit matrix; returns (out, T, R)."""
    m, M = pipeline.system.alphabet.m, pipeline.system.alphabet.M
    T = R = 0
    for kind, rule in pipeline.plan:
        if kind == MAP:
            Z = batch_apply(rule, Z)
        else:
            lo, hi = (m, M + 1) if kind == TOP_PASS else (m - 1, M)
            U = np.clip(Z, lo, hi)
            V = Z - U
            W = batch_apply(rule, U)
            # output column of the input msd exponent is rule.memory
            W[:, rule.memory:rule.memory + Z.shape[1]] += V
            Z = W
        T += rule.anticipation
        R += rule.memory
    return Z, T, R


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
    """Rows of C (coefficients, msd first) that represent the value 0.

    The batched form of ``algebra.reduce_mod_base``: the same division
    by the minimal polynomial in int64 columns, or that scalar test row
    by row when ``_growth_bound`` says int64 could overflow.
    """
    divisor = base.minimal_poly
    N, W = C.shape
    col_max = [int(np.abs(C[:, i]).max()) if N else 0 for i in range(W)]
    if _growth_bound(col_max, divisor) >= 2 ** 62:
        return np.array([represents_zero(DigitString(tuple(map(int, row))),
                                         base) for row in C], dtype=bool)
    if divisor[0] != 1:
        b, c = divisor
        acc = np.zeros(N, dtype=np.int64)
        for j in range(W):
            acc = acc * (-c) + C[:, j] * b ** j
        return acc == 0
    d = len(divisor) - 1
    if W <= d:
        return (C == 0).all(axis=1)
    R = C.astype(np.int64).copy()
    tail = divisor[1:]
    for i in range(W - d):
        lead = R[:, i]
        for j in range(d):
            R[:, i + 1 + j] -= lead * tail[j]
    return (R[:, W - d:] == 0).all(axis=1)


# --- conversion verification ----------------------------------------------


def _digit_matrix(codes: np.ndarray, L: int, S: int, m: int) -> np.ndarray:
    D = np.empty((len(codes), L), dtype=np.int64)
    for i in range(L):
        D[:, i] = (codes // S ** (L - 1 - i)) % S + m
    return D


def _check_batch(rule: LocalRule, base: BaseSpec, D: np.ndarray,
                 report: VerificationReport, limit: int = 10) -> None:
    """Alphabet closure + exact value preservation for a batch of strings."""
    out = batch_apply(rule, D)
    r = rule.memory
    oa = rule.output_alphabet
    bad = (out < oa.m) | (out > oa.M)
    if bad.any():
        rows = np.unique(np.nonzero(bad)[0])[:limit]
        for i in rows:
            report.fail("output-alphabet", input=[int(x) for x in D[i]],
                        output=[int(x) for x in out[i]])
    C = -out
    C[:, r:r + D.shape[1]] += D
    ok = values_zero_batch(C, base)
    if not ok.all():
        for i in np.nonzero(~ok)[0][:limit]:
            report.fail("value-preservation", input=[int(x) for x in D[i]],
                        output=[int(x) for x in out[i]])
    report.instances_checked += len(D)
    report.note("alphabet-closure", len(D))
    report.note("value-preservation", len(D))


_CHUNK = 1 << 19


def verify_conversion(rule: LocalRule, base: BaseSpec, max_len: int = 6,
                      *, budget: int = DEFAULT_BUDGET,
                      samples: int = DEFAULT_SAMPLES,
                      seed: int = 0) -> VerificationReport:
    """Check a conversion rule on every input string up to a length budget.

    Lengths whose exhaustive count S**L fits the remaining budget are
    enumerated completely; if the budget runs out before ``max_len``,
    ``samples`` random strings of length ``max_len`` are checked instead.
    Also checks zero stability, translation invariance, and that outputs
    really only depend on the declared window.
    """
    report = VerificationReport(subject=rule.name or "rule")
    S = rule.input_alphabet.size
    m = rule.input_alphabet.m
    rng = random.Random(seed)
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
            codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
            D = _digit_matrix(codes, L, S, m)
            _check_batch(rule, base, D, report)
        spent += total
    if len(report.exhaustive_lengths) < max_len and samples:
        D = nprng.integers(m, m + S, size=(samples, max_len), dtype=np.int64)
        _check_batch(rule, base, D, report)
        report.sampled = samples

    _check_translation(rule, base, report, rng)
    _check_locality(rule, report, rng)
    return report


def _check_translation(rule: LocalRule, base: BaseSpec,
                       report: VerificationReport, rng: random.Random,
                       n: int = 40) -> None:
    """Shifting the radix point commutes with the conversion."""
    letters = list(rule.input_alphabet)
    for _ in range(n):
        L = rng.randint(1, 6)
        digits = tuple(rng.choice(letters) for _ in range(L))
        delta = rng.randint(-5, 5)
        a = apply_rule(rule, DigitString(digits, 0))
        b = apply_rule(rule, DigitString(digits, delta))
        if normalize(a.shifted(delta)) != normalize(b):
            report.fail("translation-invariance", digits=list(digits),
                        delta=delta)
    report.note("translation-invariance", n)


def _check_locality(rule: LocalRule, report: VerificationReport,
                    rng: random.Random, n: int = 200) -> None:
    """A digit change at distance > t ahead / > r behind cannot matter."""
    letters = list(rule.input_alphabet)
    t, r = rule.anticipation, rule.memory
    for _ in range(n):
        L = rng.randint(t + r + 2, t + r + 8)
        digits = [rng.choice(letters) for _ in range(L)]
        pos = rng.randrange(L)  # index from msd
        mutated = list(digits)
        mutated[pos] = rng.choice([d for d in letters if d != mutated[pos]])
        a = apply_rule(rule, DigitString(tuple(digits), 0))
        b = apply_rule(rule, DigitString(tuple(mutated), 0))
        # exponent of the mutated digit; output j reads inputs j+t..j-r,
        # so only outputs with e-t <= j <= e+r may legitimately change
        e = L - 1 - pos
        for j in range(-t, L - 1 + r + 1):
            if e - t <= j <= e + r:
                continue
            if a.digit_at(j) != b.digit_at(j):
                report.fail("locality", digits=digits, position=e,
                            affected=j)
                break
    report.note("locality", n)


# --- addition verification -------------------------------------------------


def verify_addition(pipeline: AdderPipeline, n_pairs: int = 10 ** 4,
                    max_len: int = 8, *, seed: int = 0,
                    subtraction: bool = None) -> VerificationReport:
    """Random addition closure: digits stay in A, values are exact.

    When the alphabet is mixed-sign, subtraction pairs are checked too
    (override with ``subtraction=``).
    """
    system = pipeline.system
    alphabet = system.alphabet
    report = VerificationReport(subject=f"addition over {alphabet} "
                                        f"base {system.base.describe()}")
    nprng = np.random.default_rng(seed)
    X = nprng.integers(alphabet.m, alphabet.M + 1,
                       size=(n_pairs, max_len), dtype=np.int64)
    Y = nprng.integers(alphabet.m, alphabet.M + 1,
                       size=(n_pairs, max_len), dtype=np.int64)
    if subtraction is None:
        subtraction = alphabet.m < 0 < alphabet.M
    jobs = [("add", X + Y)]
    if subtraction:
        jobs.append(("subtract", X - Y))
    for label, Z in jobs:
        out, T, R = batch_reduce(pipeline, Z)
        bad = (out < alphabet.m) | (out > alphabet.M)
        if bad.any():
            for i in np.unique(np.nonzero(bad)[0])[:10]:
                report.fail(f"{label}-closure", x=[int(v) for v in X[i]],
                            y=[int(v) for v in Y[i]],
                            result=[int(v) for v in out[i]])
        C = -out
        C[:, R:R + max_len] += Z
        ok = values_zero_batch(C, system.base)
        if not ok.all():
            for i in np.nonzero(~ok)[0][:10]:
                report.fail(f"{label}-value", x=[int(v) for v in X[i]],
                            y=[int(v) for v in Y[i]],
                            result=[int(v) for v in out[i]])
        report.note(f"{label}-closure", n_pairs)
        report.note(f"{label}-value", n_pairs)
        report.instances_checked += n_pairs
    return report


# --- structural properties ------------------------------------------------------


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
