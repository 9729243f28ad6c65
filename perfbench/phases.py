"""The work of one benchmark run: bulk, oneshot and verify phases.

Every run executes all three phases, so every end-to-end metric has a
value on every workload: the workload's own phase runs at full size and
the other two run first, as small fixed probes (see ``run.plans``).
Each phase times its calls into paradd from outside, opens a span per
layer call when tracing is on, and checks every output after the timer
has stopped.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from paradd import adder, algebra, bench, cli, oracle, rules
from paradd.cli import parse_alphabet, parse_base
from paradd.core import (
    DigitString, digitwise_negate, digitwise_sum, make_system, normalize,
)

import exact

# tag -> (--base, --alphabet); the seven systems of the bulk workload
BULK = {
    "neg2": ("-2", "0..2"),
    "neg2sym": ("-2", "-1..1"),   # mixed signs: goes through subtract
    "r3_2": ("3/2", "0..4"),
    "nr3_2": ("-3/2", "0..4"),
    "pm3": ("pisot-:3", "0..2"),
    "pp2": ("pisot+:2", "0..3"),
    "m1pi": ("-1+i", "0..4"),
}
SUBTRACT = {"neg2sym"}
LINEAR = {"neg2", "neg2sym", "r3_2", "nr3_2"}
# m1pi stays out: run_pipeline_flat tabulates 6**9 windows per pass in
# Python, about 49 s per call, longer than a whole run.
FLAT = ("neg2", "r3_2")
# the ten systems of `paradd verify`, checked by verify_addition
CATALOG = {
    "neg2": ("-2", "0..2"), "r3_2": ("3/2", "0..4"),
    "nr3_2": ("-3/2", "0..4"), "pm3": ("pisot-:3", "0..2"),
    "pp2": ("pisot+:2", "0..3"), "root2": ("root:2,2,+", "0..2"),
    "m1pi": ("-1+i", "0..4"), "i2": ("2i", "0..4"),
    "isqrt2": ("isqrt2", "0..2"), "b2": ("2", "0..2"),
}
# the exhaustive conversion sweep of the acceptance suite's test_02:
# (rule constructor in paradd.rules, its arguments, --base text)
SWEEP = (
    [("gde_negative_integer", (b,), f"-{b}") for b in (2, 3, 5, 10)]
    + [("gde_root", (2, 1, False), "root:2,1,+"),
       ("gde_root", (2, 2, True), "root:2,2,-"),
       ("gde_root", (4, 2, True), "root:4,2,-")]
    + [("doubling_reducer", (a,), f"pisot-:{a}") for a in (3, 4, 6)]
    + [("gde_pisot_minus", (a,), f"pisot-:{a}") for a in (3, 4, 6)]
    + [("gde_pisot_plus", (a,), f"pisot+:{a}") for a in (2, 3, 5)]
    + [("gde_rational_pos", (a, b), f"{a}/{b}")
       for a, b in ((3, 2), (5, 2), (5, 3), (7, 4))]
    + [("gde_rational_neg", (a, b), f"-{a}/{b}")
       for a, b in ((3, 2), (5, 2), (5, 3), (7, 4))]
)
QUARTIC = ("gde_root", (4, 4, True), "root:4,4,-")   # -1+i, p = 9

CLI_TIMEOUT_S = 120

# The benchmark's host is a shared 2-CPU machine whose speed drifts: a
# fixed Python loop's time moves by about 30% (interquartile range over
# median) from second to second and from minute to minute, and every
# timing with it.  So a fixed reference loop is timed right before and
# right after each measured call, on the CPUs the call uses, and the
# call's duration is scaled to what it would read when the loop takes
# REF_NOMINAL_S.  Raw wall-clock figures are kept beside the scaled ones
# in every result.
REF_LOOPS = 4_000
REF_REPEATS = 5
REF_NOMINAL_S = 0.0008


def host_ref() -> float:
    """Median wall time of a fixed pure-Python loop (dict stores, int
    arithmetic), over a few repeats so that one preemption does not count.
    """
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(REF_LOOPS):
            table[i & 255] = acc
            acc = (acc + i * i) & 0xFFFFFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def host_ref_on(cpus) -> float:
    """host_ref on each of the given CPUs in turn, averaged."""
    if cpus is None:
        return host_ref()
    before = os.sched_getaffinity(0)
    try:
        samples = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            samples.append(host_ref())
    finally:
        os.sched_setaffinity(0, before)
    return sum(samples) / len(samples)


class Clock:
    """Times one call between two reference samples.

    ``cpus`` is None for a call on the run's own CPU, or the CPUs a
    multi-process call spreads over.  ``seconds`` is the raw time scaled
    by the nominal reference time over the mean of the two samples.
    """

    def __init__(self, refs: list, cpus=None):
        self.refs = refs    # the run's (cpus, reference seconds) samples
        self.cpus = cpus

    def __enter__(self):
        self.before = host_ref_on(self.cpus)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = time.perf_counter() - self.t0
        after = host_ref_on(self.cpus)
        self.refs += [(self.cpus, self.before), (self.cpus, after)]
        self.seconds = self.raw * 2 * REF_NOMINAL_S / (self.before + after)
        return False


def build(base_text: str, alpha_text: str):
    return adder.build_pipeline(
        make_system(parse_base(base_text), parse_alphabet(alpha_text)))


class Run:
    """State of one run: inputs from the seed, timings, failures."""

    def __init__(self, root, workload: str, seed: int, tracer):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.np = np.random.default_rng(seed)
        self.tr = tracer
        self.workers_requested = 2
        self.cpus = sorted(os.sched_getaffinity(0))
        self.wmax = min(self.workers_requested, len(self.cpus))
        self.req = 0
        self.attempted = 0
        self.failures = []
        self.timings = {}       # kind -> [(work units, Clock)]
        self.add_rounds = []    # [(digits, Clock)] per round of adds
        self.latencies = []     # (request class, Clock) per CLI process
        self.refs = []          # (cpus, reference-loop seconds)
        self.issued = []        # CLI requests, replayed by the traced run
        self.known_defects = {}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def op(self) -> int:
        self.attempted += 1
        self.req += 1
        return self.req

    def fail(self, req: int, what: str, reason: str) -> None:
        self.failures.append({"req": req, "op": what, "reason": reason})

    def clock(self, workers: int = 1) -> Clock:
        return Clock(self.refs, self.cpus[:workers] if workers > 1 else None)

    def pin(self) -> None:
        """Keep this process and its children on one CPU.

        The reference loop then runs on the CPU that does the measured
        work; the two CPUs of a shared host drift apart.
        """
        os.sched_setaffinity(0, self.cpus[:1])

    @contextlib.contextmanager
    def spread(self, workers: int):
        """Let a call and the pool it forks use ``workers`` CPUs."""
        os.sched_setaffinity(0, self.cpus[:workers])
        try:
            yield
        finally:
            os.sched_setaffinity(0, self.cpus[:1])

    def timed(self, kind: str, units: float, clock: Clock) -> None:
        self.timings.setdefault(kind, []).append((units, clock))

    def rate(self, kind: str, raw: bool = False) -> float:
        return _rate(self.timings[kind], raw)

    def add_rate(self, raw: bool = False) -> float:
        """Median over add rounds; each round adds once per bulk system."""
        return statistics.median(_rate(r, raw) for r in self.add_rounds)

    def call_rate(self, kind: str, raw: bool = False) -> float:
        """Median over single calls, so one disturbed call does not count."""
        return statistics.median(_rate([op], raw) for op in self.timings[kind])

    def speed_factor(self) -> float:
        """Nominal over median reference time: scales run-level timings."""
        return REF_NOMINAL_S / statistics.median(
            v for cpus, v in self.refs if cpus is None)

    def digits(self, alphabet, n: int) -> list:
        return self.np.integers(alphabet.m, alphabet.M + 1, n).tolist()


def _rate(ops: list, raw: bool) -> float:
    return (sum(units for units, _ in ops)
            / sum(c.raw if raw else c.seconds for _, c in ops))


# --- setup -------------------------------------------------------------------

_SETUP_CHILD = r"""
import json, sys
import paradd, paradd.cli
from paradd import rules
from paradd.adder import build_pipeline
from paradd.cli import parse_alphabet, parse_base
from paradd.core import make_system
spec = json.loads(sys.argv[1])
for b, a in spec["systems"]:
    build_pipeline(make_system(parse_base(b), parse_alphabet(a)))
for fn, args in spec["rules"]:
    getattr(rules, fn)(*args)
print("ready", flush=True)
"""


def setup_spec(workload: str) -> dict:
    """What a fresh interpreter builds before the workload's first call."""
    if workload == "bulk":
        return {"systems": list(BULK.values()), "rules": []}
    if workload == "verify":
        return {"systems": list(CATALOG.values()),
                "rules": [(fn, list(args)) for fn, args, _ in SWEEP + [QUARTIC]]}
    return {"systems": [], "rules": []}   # oneshot: each CLI process builds


def measure_setup(run: Run, repeats: int) -> list:
    """Clocks from spawning a fresh interpreter to its 'ready' line."""
    spec = json.dumps(setup_spec(run.workload))
    clocks = []
    for _ in range(repeats):
        with run.clock() as clock:
            proc = subprocess.Popen([sys.executable, "-c", _SETUP_CHILD, spec],
                                    stdout=subprocess.PIPE, text=True,
                                    env=run.env, cwd=run.root)
            line = proc.stdout.readline()
        with proc:
            proc.wait()
        if line.strip() != "ready" or proc.returncode:
            raise RuntimeError(f"setup child failed (exit {proc.returncode})")
        clocks.append(clock)
    return clocks


# --- bulk: long operands through add/subtract and the flat path ---------------


def add_round(run: Run, pipes: dict, length: int, phase: str) -> list:
    """One add or subtract per bulk system; returns what the gate needs."""
    tr = run.tr
    done = []
    timed = []
    for tag, pipe in pipes.items():
        alphabet = pipe.system.alphabet
        x, y = run.digits(alphabet, length), run.digits(alphabet, length)
        op = adder.subtract if tag in SUBTRACT else adder.add
        req = run.op()
        gc.collect()
        with run.clock() as clock, tr.span("op.add", req, sys=tag,
                                            phase=phase):
            with tr.span("core.DigitString", digits=2 * length):
                xs, ys = DigitString(tuple(x), 0), DigitString(tuple(y), 0)
            with tr.span("adder.add", sys=tag, digits=length):
                out = op(xs, ys, pipe)
            with tr.span("core.DigitString.digits", digits=len(out.digits)):
                list(out.digits)
        timed.append((length, clock))
        done.append((req, tag, pipe, xs, ys, out))
    run.add_rounds.append(timed)
    return done


def _check_add(run: Run, req, tag, pipe, xs, ys, out, with_wmax: bool):
    system = pipe.system
    if any(d not in system.alphabet for d in out.digits):
        return run.fail(req, f"add {tag}", "digit outside the alphabet")
    z = digitwise_sum(xs, digitwise_negate(ys) if tag in SUBTRACT else ys)
    if tag in LINEAR:
        ripple = bench.ripple_digit_sum(list(z.digits), system.base)
        same = bench.values_equal_mod_primes(
            list(out.digits), out.lsd_exponent, ripple, z.lsd_exponent,
            system.base, seed=run.seed, n_primes=1)
    else:
        same = algebra.values_equal(out, z, system.base)
    if not same:
        return run.fail(req, f"add {tag}", "value differs from x + y")
    if tag in FLAT:
        lsd = -sum(rule.anticipation for _, rule in pipe.plan)
        for w in ((1, run.wmax) if with_wmax else (1,)):
            with run.spread(w):
                flat = bench.run_pipeline_flat(pipe, list(z.digits), w)
            if normalize(DigitString(tuple(flat), lsd)) != out:
                return run.fail(req, f"add {tag}",
                                f"flat path with {w} worker(s) differs")


def flat_round(run: Run, pipes: dict, length: int, phase: str) -> None:
    """run_pipeline_flat at 1 and wmax workers, and the ripple reference."""
    tr = run.tr
    for tag in FLAT:
        pipe = pipes[tag]
        system = pipe.system
        alphabet = system.alphabet
        z = [a + b for a, b in zip(run.digits(alphabet, length),
                                   run.digits(alphabet, length))]
        passes = len(pipe.plan)
        outs = {}
        for label, w in (("w1", 1), ("wmax", run.wmax)):
            req = run.op()
            gc.collect()
            with run.spread(w), run.clock(w) as clock, tr.span(
                    "bench.run_pipeline_flat", req, sys=tag, workers=label,
                    n_workers=w, phase=phase, digit_passes=length * passes):
                outs[label] = bench.run_pipeline_flat(pipe, z, w)
            run.timed(f"flat_{label}", length * passes, clock)
        gc.collect()
        with tr.span("bench.ripple_digit_sum", req, sys=tag, digits=length):
            ripple = bench.ripple_digit_sum(z, system.base)
        lsd = -sum(rule.anticipation for _, rule in pipe.plan)
        if outs["w1"] != outs["wmax"]:
            run.fail(req, f"flat {tag}", "1 and wmax workers differ")
        elif any(d not in alphabet for d in outs["w1"]):
            run.fail(req, f"flat {tag}", "digit outside the alphabet")
        elif not bench.values_equal_mod_primes(
                outs["w1"], lsd, ripple, 0, system.base, seed=run.seed,
                n_primes=1):
            run.fail(req, f"flat {tag}", "value differs from ripple sum")


def bulk(run: Run, pipes: dict, rounds: int, add_len: tuple,
         flat_len: int, flat_rounds: int, phase: str) -> None:
    bulk_pipes = {tag: pipes[tag] for tag in BULK}
    with run.tr.span("phase.bulk", phase=phase):
        # untimed: the first call of a phase also pays for growing the heap
        warm = pipes[FLAT[0]]
        bench.run_pipeline_flat(warm, run.digits(warm.system.alphabet,
                                                 flat_len))
        for _ in range(flat_rounds):
            flat_round(run, pipes, flat_len, phase)
        checked = set()
        for _ in range(rounds):
            length = run.rng.randint(*add_len)
            for req, tag, pipe, xs, ys, out in add_round(
                    run, bulk_pipes, length, phase):
                # the pool-starting wmax comparison once per system and phase
                _check_add(run, req, tag, pipe, xs, ys, out,
                           with_wmax=tag not in checked)
                checked.add(tag)


# --- oneshot: sequential `python -m paradd.cli` processes ------------------------

ADD_TAGS = ["neg2", "r3_2", "nr3_2", "pm3", "pp2", "m1pi"]
CONVERT_BASES = ["-2", "3/2", "-3/2", "pisot-:3", "pisot+:2", "-1+i", "2i"]
# minimal alphabet sizes (|f(1)|, +2 for real beta > 1; ceil(beta); a + b
# for rational a/b), as proven in the literature the package follows
BOUNDS = {"-2": 3, "3/2": 5, "-3/2": 5, "pisot-:3": 3, "pisot+:2": 4,
          "-1+i": 5, "2i": 5, "isqrt2": 3, "root:2,2,+": 3, "2": 3,
          "10": 11, "-10": 11, "pisot-:4": 4, "pisot+:3": 5, "5/3": 8}
EUCLID_INT = ["2", "10", "16", "-2", "-10"]
EUCLID_RAT = ["3/2", "-3/2", "5/3", "7/4"]
LINEAR_EXPAND = ["2", "10", "3/2", "5/3", "7/4"]
ROOT_EXPAND = ["root:2,2,+", "root:3,2,+"]
QUAD_EXPAND = ["pisot-:3", "pisot+:2", "pisot-:4", "pisot+:3"]
REFUSAL_BASES = ["2", "10", "3/2", "root:2,2,+"]
KINDS = ("greedy", "window", "symmetric")

# One deck is 20 requests; the native phase runs whole decks.  Six of the
# twenty are expansions over pisot bases, whose cost grows smoothly with
# the magnitude (about 0.3 s at 10**12, 2 s at 10**30 on a 2-CPU host);
# their exponents are stratified over 0..30 so every seed draws the same
# spread of slow requests, and the tail percentile lands inside that class
# rather than between it and the fast ones.
DECK = (["add"] * 3 + ["subtract", "convert", "convert", "bounds",
                       "bounds", "euclid_int", "euclid_rat"]
        + ["linear", "linear", "root", "refusal"] + ["quad"] * 6)
# Probe of the other workloads: fast classes only.
PROBE_DECK = ["add", "add", "add", "subtract", "convert", "convert",
              "bounds", "bounds", "euclid_int", "euclid_rat", "linear",
              "linear", "linear", "linear", "root", "refusal"]


def _digit_text(rng, lo: int, hi: int) -> str:
    left = [rng.randint(lo, hi) for _ in range(rng.randint(1, 20))]
    right = [rng.randint(lo, hi) for _ in range(rng.randint(0, 4))]
    return " ".join([*map(str, left), ".", *map(str, right)])


def _number(rng, exponent: float, signed: bool) -> Fraction:
    q = 1 if rng.random() < 0.5 else rng.randint(2, 999)
    mag = int(10 ** exponent)
    x = Fraction(rng.randrange(q * mag, q * 10 * mag), q)
    return -x if signed and rng.random() < 0.5 else x


def _expansion(base: str, kind: str, x: Fraction, m: int = 0) -> dict:
    arg = ["--window", f"{m},{x}"] if kind == "window" else [f"--{kind}", str(x)]
    return {"cls": kind, "cmd": "expand", "base": base, "x": x, "m": m,
            "argv": ["expand", "--base", base, *arg, "--json"], "exit": 0}


def _expand_request(rng, base: str, kind: str, exponent: float) -> dict:
    field = exact.Field(base)
    x = _number(rng, exponent, signed=kind != "greedy")
    m = 0
    if kind == "window":
        # alphabet {m..m+ceil(beta)-1} represents x > 0 iff m > 1 - beta
        # and x < 0 iff m < 0
        ms = [m for m in range(1 - field.ceil_beta(), 1)
              if (x > 0 and field.sign(field.add(field.beta(),
                                                 field.const(m - 1))) > 0)
              or (x < 0 and m < 0)]
        m = rng.choice(ms)
    return _expansion(base, kind, x, m)


def _request(rng, cls: str, nth: int, stratum: float) -> dict:
    """The nth request of a class; nth picks its base, the seed the rest."""
    if cls in ("add", "subtract"):
        tag = "neg2sym" if cls == "subtract" else ADD_TAGS[nth % len(ADD_TAGS)]
        base, alpha = BULK[tag]
        a = parse_alphabet(alpha)
        x, y = _digit_text(rng, a.m, a.M), _digit_text(rng, a.m, a.M)
        flag = ["--subtract"] if cls == "subtract" else []
        return {"cls": cls, "cmd": "add", "base": base, "alphabet": alpha,
                "x": x, "y": y, "exit": 0,
                "argv": ["add", "--base", base, "--alphabet", alpha, *flag,
                         x, y]}
    if cls == "convert":
        base = CONVERT_BASES[nth % len(CONVERT_BASES)]
        top = rules.canonical_gde(parse_base(base)).input_alphabet.M
        x = _digit_text(rng, 0, top)
        return {"cls": cls, "cmd": "convert", "base": base, "x": x,
                "exit": 0, "argv": ["convert", "--base", base, x]}
    if cls == "bounds":
        base = sorted(BOUNDS)[nth % len(BOUNDS)]
        return {"cls": cls, "cmd": "bounds", "base": base, "exit": 0,
                "argv": ["bounds", "--base", base, "--json"]}
    if cls in ("euclid_int", "euclid_rat"):
        integer = cls == "euclid_int"
        bases = EUCLID_INT if integer else EUCLID_RAT
        base = bases[nth % len(bases)]
        n = rng.randrange(1, 10 ** rng.randint(1, 700 if integer else 30))
        if base.startswith("-") and rng.random() < 0.5:
            n = -n
        return {"cls": "euclid", "cmd": "expand", "base": base, "x": n,
                "exit": 0,
                "argv": ["expand", "--base", base, "--euclid", str(n),
                         "--json"]}
    if cls == "refusal":
        base = REFUSAL_BASES[nth % len(REFUSAL_BASES)]
        x = -_number(rng, rng.uniform(0, 30), signed=False)
        return {"cls": "refusal", "cmd": "expand", "base": base, "x": x,
                "m": 0, "exit": 3,
                "argv": ["expand", "--base", base, "--window", f"0,{x}",
                         "--json"]}
    bases = {"linear": LINEAR_EXPAND, "root": ROOT_EXPAND,
             "quad": QUAD_EXPAND}[cls]
    exponent = stratum if cls == "quad" else rng.uniform(0, 30)
    return _expand_request(rng, bases[nth % len(bases)],
                           KINDS[nth % len(KINDS)], exponent)


def requests(rng, deck: list, decks: int) -> list:
    """Whole decks, each in seed-shuffled order.

    The classes of a deck are fixed, and so is the sequence of bases and
    expansion kinds within each class: every seed issues the same mix,
    and only the order, digits and magnitudes change.  The pisot
    magnitudes of a deck take one exponent from each of equal strata of
    0..30.
    """
    out = []
    seen = {}
    n_quad = deck.count("quad")
    for _ in range(decks):
        classes = list(deck)
        rng.shuffle(classes)
        strata = [(i + rng.random()) * 30 / n_quad for i in range(n_quad)]
        rng.shuffle(strata)
        for cls in classes:
            nth = seen.get(cls, 0)
            seen[cls] = nth + 1
            out.append(_request(rng, cls, nth,
                                strata.pop() if cls == "quad" else 0.0))
    return out


def check_cli(req: dict, code: int, stdout: str, stderr: str) -> str:
    """Empty string when the CLI answered this request correctly."""
    if "Traceback" in stderr:
        return "traceback"
    if code != req["exit"]:
        return f"exit {code}, expected {req['exit']}"
    if code:
        return ""
    cls = req["cls"]
    if cls in ("add", "subtract"):
        base = parse_base(req["base"])
        alphabet = parse_alphabet(req["alphabet"])
        digits, lsd = exact.parse_digits(stdout.strip().splitlines()[-1])
        if any(d not in alphabet for d in digits):
            return "digit outside the alphabet"
        x, y = (DigitString(*exact.parse_digits(t)) for t in (req["x"], req["y"]))
        z = digitwise_sum(x, digitwise_negate(y) if cls == "subtract" else y)
        if not algebra.values_equal(DigitString(digits, lsd), z, base):
            return "value differs"
        return ""
    if cls == "convert":
        base = parse_base(req["base"])
        digits, lsd = exact.parse_digits(stdout.strip())
        if any(d not in rules.canonical_gde(base).output_alphabet
               for d in digits):
            return "digit outside the output alphabet"
        if not algebra.values_equal(DigitString(digits, lsd),
                                    DigitString(*exact.parse_digits(req["x"])),
                                    base):
            return "value differs"
        return ""
    payload = json.loads(stdout)
    if cls == "bounds":
        got = payload["minimal_size"]
        want = BOUNDS[req["base"]]
        return "" if got == want else f"minimal size {got}, expected {want}"
    field = exact.Field(req["base"])
    digits = tuple(payload["digits"]["digits"])
    lsd = payload["digits"]["lsd_exponent"]
    if cls == "euclid":
        return exact.check_euclid(field, req["x"], digits, lsd)
    return exact.check_expansion(field, cls, req["x"], req["m"], digits, lsd,
                                 payload["exact"])


def oneshot(run: Run, reqs: list, phase: str) -> None:
    """Closed loop, one client: each request waits for the previous one."""
    tr = run.tr
    answers = []
    with tr.span("phase.oneshot", phase=phase):
        for r in reqs:
            req = run.op()
            with run.clock() as clock, tr.span("cli.process", req,
                                                cmd=r["cmd"], cls=r["cls"]):
                try:
                    proc = subprocess.run(
                        [sys.executable, "-m", "paradd.cli", *r["argv"]],
                        capture_output=True, text=True, env=run.env,
                        cwd=run.root, timeout=CLI_TIMEOUT_S)
                    answer = (proc.returncode, proc.stdout, proc.stderr)
                except subprocess.TimeoutExpired:
                    answer = None
            run.latencies.append((r["cls"], clock))
            answers.append((req, r, answer))
    run.issued.extend(reqs)
    for req, r, answer in answers:
        reason = (check_cli(r, *answer) if answer
                  else f"no answer within {CLI_TIMEOUT_S} s")
        if reason:
            run.fail(req, " ".join(r["argv"][:3]), reason)


# --- verify: the exhaustive oracle sweep and random addition closure -----------


def verify(run: Run, catalog_pipes: dict, max_len: int, quartic_len: int,
           pairs: int, phase: str) -> None:
    tr = run.tr
    jobs = [(fn, args, base, max_len, {}) for fn, args, base in SWEEP]
    fn, args, base = QUARTIC
    jobs.append((fn, args, base, quartic_len,
                 {"budget": 6 + 36 + 216 + 1296, "samples": 10 ** 5}))
    with tr.span("phase.verify", phase=phase):
        for fn, args, base_text, length, extra in jobs:
            rule = getattr(rules, fn)(*args)
            base = parse_base(base_text)
            req = run.op()
            gc.collect()
            with run.clock() as clock, tr.span(
                    "oracle.verify_conversion", req, family=base.kind,
                    rule=fn) as sp:
                rep = oracle.verify_conversion(rule, base, length,
                                               seed=run.seed, **extra)
                sp.set(instances=rep.instances_checked)
            run.timed("verify", rep.instances_checked, clock)
            if not rep.passed:
                run.fail(req, f"verify_conversion {rule.name}",
                         str(rep.failures[:1]))
        for tag, pipe in catalog_pipes.items():
            req = run.op()
            gc.collect()
            with run.clock() as clock, tr.span(
                    "oracle.verify_addition", req, sys=tag) as sp:
                rep = oracle.verify_addition(pipe, n_pairs=pairs,
                                             seed=run.seed)
                sp.set(instances=rep.instances_checked)
            run.timed("verify", rep.instances_checked, clock)
            if not rep.passed:
                run.fail(req, f"verify_addition {tag}", str(rep.failures[:1]))


# --- known wrong answers ---------------------------------------------------------


class _Capped(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Capped()


def call_cli(argv: list, cap_s: float = 0.0):
    """cli.main in process: (exit code, stdout, stderr), or None at the cap."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm) if cap_s else None
    try:
        if cap_s:
            signal.setitimer(signal.ITIMER_REAL, cap_s)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except _Capped:
        return None
    finally:
        if cap_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


REFUSAL_CAP_S = 1.0


def known_defects(run: Run) -> None:
    """Inputs the program answers wrongly today, run and named every run.

    They sit outside the timed phases and outside ``failed``: the
    workloads hold only inputs that a correct program answers, and these
    report separately whether each defect is still open.
    """
    rng = random.Random(run.seed)
    cases = {"greedy-10e600-base10":
             _expansion("10", "greedy", Fraction(10 ** 600))}
    for kind in KINDS:
        cases[f"{kind}-1e700-base10"] = _expand_request(rng, "10", kind, 699)
    slow = {"cls": "refusal", "exit": 3,
            "argv": ["expand", "--base", "pisot-:3", "--window", "0,-5"]}
    cases[f"window-refusal-pisot-3-over-{REFUSAL_CAP_S:g}s"] = slow
    for name, req in cases.items():
        capped = req is slow
        answer = call_cli(req["argv"], REFUSAL_CAP_S if capped else 0.0)
        reason = (check_cli(req, *answer) if answer
                  else f"no answer within {REFUSAL_CAP_S:g} s")
        run.known_defects[name] = {"argv": " ".join(req["argv"])[:120],
                                   "open": bool(reason), "observed": reason}


# --- end-to-end metrics --------------------------------------------------------------


def tail(samples: list) -> tuple:
    """(value, percentile): highest percentile with >= 10 samples beyond."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError("the tail needs at least 11 samples")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(run: Run, setup: list, raw: bool = False) -> dict:
    """name -> (value, unit); scaled to nominal host speed unless raw."""
    def pick(clock):
        return clock.raw if raw else clock.seconds
    lat = [pick(c) for _, c in run.latencies]
    tail_s, _ = tail(lat)
    return {
        "setup_s": (statistics.median(pick(c) for c in setup), "s"),
        "add_digits_per_s": (run.add_rate(raw), "digits/s"),
        "flat_w1_digit_passes_per_s": (run.call_rate("flat_w1", raw),
                                       "digit-passes/s"),
        "flat_wmax_digit_passes_per_s": (run.call_rate("flat_wmax", raw),
                                         "digit-passes/s"),
        "oneshot_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "oneshot_tail_ms": (1e3 * tail_s, "ms"),
        "oneshot_ops_per_s": (len(lat) / sum(lat), "1/s"),
        "verify_instances_per_s": (run.rate("verify", raw), "instances/s"),
    }
