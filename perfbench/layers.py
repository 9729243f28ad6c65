"""Per-layer measurements, taken only in a traced run.

The phases already record spans for add, the flat path, the ripple
reference, one-shot processes and the oracle.  This module adds the
layer calls that no phase makes on its own (cold rule builds, single
rule passes, the pass plan without conversion, in-process CLI calls,
expansions, bounds, digit-string parsing) and turns all spans into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

from paradd import adder, bounds, cli, expansions, rules
from paradd.adder import MAP
from paradd.cli import parse_base
from paradd.core import (
    DigitString, digitwise_negate, digitwise_sum, format_digit_string,
    parse_digit_string,
)
from paradd.errors import NumerationError
from paradd.local import apply_rule

import phases
from phases import BULK, CATALOG, FLAT, SUBTRACT
from tracing import Tracer

LAYER_LEN = 4000         # digits per single-layer call
REPEATS = 3


def _cold_build(tr, tag, base_text, alpha_text):
    for fn in vars(rules).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    with tr.span("adder.build_pipeline", sys=tag):
        phases.build(base_text, alpha_text)


def distinct_rules(pipe, tag):
    """(slug, rule) for each distinct rule of a pass plan."""
    seen = {}
    for i, (kind, rule) in enumerate(pipe.plan):
        slug = f"{tag}.{kind}{i}" if kind == MAP else f"{tag}.{kind}"
        seen.setdefault(slug, rule)
    return list(seen.items())


def _import_s(run) -> float:
    """Median import time of paradd.cli minus bare interpreter start."""
    def wall(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=run.env,
                       cwd=run.root, check=True)
        return time.perf_counter() - t0
    bare = [wall("pass") for _ in range(REPEATS)]
    full = [wall("import paradd.cli") for _ in range(REPEATS)]
    return statistics.median(full) - statistics.median(bare)


def _library_call(req: dict):
    """The expansions call behind one `expand` request."""
    base = parse_base(req["base"])
    x = req["x"]
    if req["cls"] == "euclid":
        return lambda: expansions.euclid_expansion(x, base)
    if req["cls"] == "greedy":
        return lambda: expansions.greedy_expansion(x, base)
    if req["cls"] == "symmetric":
        return lambda: expansions.symmetric_expansion(x, base)
    return lambda: expansions.tm_expansion(x, req["m"], base)


def _replay(run) -> None:
    """The run's one-shot requests, in process and through the library."""
    tr = run.tr
    for r in run.issued:
        with tr.span("cli.main", cmd=r["cmd"], cls=r["cls"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(r["argv"])
        if r["cmd"] == "expand":
            name = ("expansions.refusal" if r["cls"] == "refusal"
                    else f"expansions.{r['cls']}")
            call = _library_call(r)
            with tr.span(name, base=r["base"]):
                try:
                    call()
                except NumerationError:
                    pass
        for key in ("x", "y"):
            if r["cmd"] in ("add", "convert") and key in r:
                with tr.span("core.parse_digit_string"):
                    ds = parse_digit_string(r[key])
                with tr.span("core.format_digit_string"):
                    format_digit_string(ds)


def _overhead(run, pipes) -> float:
    """Median traced minus median untraced time of the same add round.

    The calibration rounds are taken out of the run's rounds, counts and
    spans afterwards: they are not workload operations.
    """
    traced = run.tr
    saved = (list(run.add_rounds), run.attempted, run.req)
    bulk = {tag: pipes[tag] for tag in BULK}
    totals = {True: [], False: []}
    for _ in range(REPEATS):
        for tr in (Tracer(False), traced):
            run.tr = tr
            n0 = len(traced.spans)
            phases.add_round(run, bulk, 1000, "overhead")
            totals[tr.enabled].append(
                sum(c.seconds for _, c in run.add_rounds[-1]))
            del traced.spans[n0:]
    run.tr = traced
    run.add_rounds, run.attempted, run.req = saved
    return statistics.median(totals[True]) - statistics.median(totals[False])


def sweep(run, pipes: dict) -> dict:
    """Layer calls made only when tracing; returns derived extras."""
    tr = run.tr
    overhead_s = _overhead(run, pipes)
    with tr.span("phase.layers"):
        for _ in range(REPEATS):
            for tag, (b, a) in {**BULK, **CATALOG}.items():
                _cold_build(tr, tag, b, a)
        for tag in BULK:
            pipe = pipes[tag]
            alphabet = pipe.system.alphabet
            for slug, rule in distinct_rules(pipe, tag):
                ds = DigitString(tuple(run.digits(rule.input_alphabet,
                                                  LAYER_LEN)), 0)
                with tr.span("local.apply_rule", rule=slug, digits=LAYER_LEN):
                    apply_rule(rule, ds)
            x = DigitString(tuple(run.digits(alphabet, LAYER_LEN)), 0)
            y = DigitString(tuple(run.digits(alphabet, LAYER_LEN)), 0)
            if tag in SUBTRACT:
                y = digitwise_negate(y)
            with tr.span("core.digitwise_sum", digits=LAYER_LEN):
                z = digitwise_sum(x, y)
            with tr.span("adder.reduce_to_alphabet", sys=tag,
                         digit_passes=LAYER_LEN * len(pipe.plan)):
                adder.reduce_to_alphabet(z, pipe)
        for _ in range(REPEATS):
            for base_text in phases.BOUNDS:
                base = parse_base(base_text)
                with tr.span("bounds.minimal_alphabet_report"):
                    bounds.minimal_alphabet_report(base)
        _replay(run)
        import_s = _import_s(run)
    return {"import_s": import_s, "overhead_s": overhead_s}


def _windows_per_call(pipe) -> int:
    """|A_in|**p summed over passes: what run_pipeline_flat tabulates."""
    return sum(rule.input_alphabet.size ** rule.window_length
               for _, rule in pipe.plan)


def metrics(run, pipes: dict, extra: dict) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    tr = run.tr
    out = {}
    for tag in {**BULK, **CATALOG}:
        out[f"rules.build_s.{tag}"] = (tr.p50("adder.build_pipeline", sys=tag),
                                       "s")
    for tag in BULK:
        for slug, _ in distinct_rules(pipes[tag], tag):
            out[f"local.apply_rule.digits_per_s.{slug}"] = (
                tr.rate("local.apply_rule", "digits", rule=slug), "digits/s")
    for tag in BULK:
        out[f"adder.add.digits_per_s.{tag}"] = (
            tr.rate("adder.add", "digits", sys=tag), "digits/s")
        out[f"adder.reduce_to_alphabet.digit_passes_per_s.{tag}"] = (
            tr.rate("adder.reduce_to_alphabet", "digit_passes", sys=tag),
            "digit-passes/s")
    out["core.digitwise_sum.digits_per_s"] = (
        tr.rate("core.digitwise_sum", "digits"), "digits/s")
    flat = "bench.run_pipeline_flat"
    for tag in FLAT:
        for label in ("w1", "wmax"):
            out[f"{flat}.digit_passes_per_s.{label}.{tag}"] = (
                tr.rate(flat, "digit_passes", sys=tag, workers=label),
                "digit-passes/s")
        t1 = tr.seconds(flat, sys=tag, workers="w1")
        tw = tr.seconds(flat, sys=tag, workers="wmax")
        out[f"bench.scaling_efficiency.{tag}"] = (t1 / (run.wmax * tw),
                                                  "ratio")
        out[f"bench.vs_ripple.{tag}"] = (
            tr.seconds("bench.ripple_digit_sum", sys=tag) / t1, "ratio")
        out[f"bench.ripple_digit_sum.digits_per_s.{tag}"] = (
            tr.rate("bench.ripple_digit_sum", "digits", sys=tag), "digits/s")
    for tag in BULK:
        # computed from the pass plan, not measured
        out[f"bench.computed.windows_per_call.{tag}"] = (
            _windows_per_call(pipes[tag]), "count")
        out[f"bench.computed.pool_starts_per_call.{tag}"] = (
            len(pipes[tag].plan) * (run.wmax > 1), "count")
    out["cli.import_s"] = (extra["import_s"], "s")
    for cmd in ("add", "convert", "bounds", "expand"):
        out[f"cli.main.p50_ms.{cmd}"] = (1e3 * tr.p50("cli.main", cmd=cmd),
                                         "ms")
    for kind in ("euclid", "greedy", "window", "symmetric"):
        out[f"expansions.{kind}.p50_ms"] = (
            1e3 * tr.p50(f"expansions.{kind}"), "ms")
        out[f"expansions.{kind}.max_ms"] = (
            1e3 * tr.max(f"expansions.{kind}"), "ms")
    out["expansions.refusal_ms"] = (1e3 * tr.p50("expansions.refusal"), "ms")
    out["bounds.minimal_alphabet_report.p50_ms"] = (
        1e3 * tr.p50("bounds.minimal_alphabet_report"), "ms")
    out["core.parse_digit_string.p50_us"] = (
        1e6 * tr.p50("core.parse_digit_string"), "us")
    out["core.format_digit_string.p50_us"] = (
        1e6 * tr.p50("core.format_digit_string"), "us")
    for family in sorted({parse_base(b).kind for _, _, b in phases.SWEEP}):
        out[f"oracle.verify_conversion.instances_per_s.{family}"] = (
            tr.rate("oracle.verify_conversion", "instances", family=family),
            "instances/s")
    for tag in CATALOG:
        out[f"oracle.verify_addition.instances_per_s.{tag}"] = (
            tr.rate("oracle.verify_addition", "instances", sys=tag),
            "instances/s")
    out["gate.fail_ratio"] = (len(run.failures) / run.attempted, "ratio")
    out["gate.known_defects_open"] = (
        sum(d["open"] for d in run.known_defects.values()), "count")
    out["trace.overhead_s"] = (extra["overhead_s"], "s")
    out["trace.spans"] = (len(tr.spans), "count")
    return out
