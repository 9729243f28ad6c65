"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage / bad input,
3 unsupported base or expansion, 4 unsupported alphabet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from .adder import PassFacts, add, build_pipeline, subtract
from .bench import MAX_LENGTH, MIN_LENGTH, run_benchmark
from .core import (
    Alphabet, BaseSpec, DigitString, format_digit_string, integer_base,
    make_system, negative_integer_base, negative_rational_base,
    negative_root_base, parse_digit_string, pisot_minus_base, pisot_plus_base,
    rational_base, root_base,
)
from .errors import (
    NotApplicableError, NumberSyntaxError, NumerationError, RuleFileError,
    UnsupportedAlphabetError, UnsupportedBaseError, within,
)
from .expansions import (
    Expansion, euclid_expansion, greedy_expansion, symmetric_expansion,
    tm_expansion, value_bounds,
)
from .local import apply_rule, negate_rule, rule_from_json
from .rules import canonical_gde, rules_for_alphabet

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
# Digits `expand` may produce: 10 000 digits of rationals in the catalog
# bases took 0.06-0.5 s on a 2-CPU host.
MAX_DIGITS = 10_000

_COMPLEX_SHORTCUTS = {
    "-1+i": (4, 4),   # (-1+i)**4 = -4
    "2i": (4, 2),     # (2i)**2 = -4
    "isqrt2": (2, 2), # (i*sqrt(2))**2 = -2
}


def parse_base(text: str) -> BaseSpec:
    t = text.strip()
    if t in _COMPLEX_SHORTCUTS:
        b, k = _COMPLEX_SHORTCUTS[t]
        return negative_root_base(b, k)
    if t.startswith("root:"):
        parts = t[5:].split(",")
        if len(parts) != 3 or parts[2] not in "+-":
            raise UnsupportedBaseError(
                f"root base must look like root:b,k,+ or root:b,k,-: {text!r}")
        b, k = int(parts[0]), int(parts[1])
        return negative_root_base(b, k) if parts[2] == "-" else root_base(b, k)
    if t.startswith("pisot-:"):
        return pisot_minus_base(int(t[7:]))
    if t.startswith("pisot+:"):
        return pisot_plus_base(int(t[7:]))
    if "/" in t:
        num, den = t.split("/", 1)
        a = int(num)
        b = int(den)
        if a < 0:
            return negative_rational_base(-a, b)
        return rational_base(a, b)
    try:
        n = int(t)
    except ValueError:
        raise UnsupportedBaseError(f"cannot parse base {text!r}")
    if n >= 2:
        return integer_base(n)
    if n <= -2:
        return negative_integer_base(-n)
    raise UnsupportedBaseError(f"|base| must be at least 2, got {text!r}")


def parse_alphabet(text: str) -> Alphabet:
    lo, _, hi = text.partition("..")
    try:
        return Alphabet(int(lo), int(hi))
    except ValueError:
        raise UnsupportedAlphabetError(
            f"alphabet must look like m..M, got {text!r}")


def parse_number(text: str) -> Fraction:
    """A rational written as an integer, a decimal or p/q."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise NumberSyntaxError(f"cannot parse number {text!r}") from None


def _read_digit_string(arg: str) -> DigitString:
    if arg == "-":
        arg = sys.stdin.read()
    return parse_digit_string(arg)


def _emit(args, payload: dict, text: str) -> None:
    try:
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json
              else text, flush=True)
    except BrokenPipeError:
        # the reader closed early (`| head`); the exit code still stands,
        # and stdout points at /dev/null so the exit-time flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# --- subcommands -----------------------------------------------------------


def cmd_expand(args) -> int:
    within("max_digits", args.max_digits, 1, MAX_DIGITS)
    base = parse_base(args.base)
    chosen = [name for name in ("euclid", "greedy", "window", "symmetric")
              if getattr(args, name) is not None]
    if len(chosen) != 1:
        print("expand: pick exactly one of --euclid/--greedy/--window/"
              "--symmetric", file=sys.stderr)
        return EXIT_USAGE
    kind = chosen[0]
    if kind == "euclid":
        res = Expansion(euclid_expansion(int(args.euclid), base), True)
    elif kind == "window":
        m, _, x = args.window.partition(",")
        res = tm_expansion(parse_number(x), int(m), base, args.max_digits)
    else:
        expansion = (greedy_expansion if kind == "greedy"
                     else symmetric_expansion)
        res = expansion(parse_number(getattr(args, kind)), base,
                        args.max_digits)
    ds = res.string
    payload = {"base": base.to_json(), "digits": ds.to_json(),
               "text": format_digit_string(ds), "exact": res.exact}
    if args.check:
        payload["check_enclosure"] = {"re": list(value_bounds(ds, base)),
                                      "im": [0.0, 0.0]}
    _emit(args, payload, format_digit_string(ds))
    return EXIT_OK


def cmd_add(args) -> int:
    base = parse_base(args.base)
    alphabet = parse_alphabet(args.alphabet)
    system = make_system(base, alphabet)
    pipeline = build_pipeline(system)
    x = _read_digit_string(args.x)
    y = _read_digit_string(args.y)
    trace = [] if args.trace else None
    op = subtract if args.subtract else add
    result = op(x, y, pipeline, trace)
    payload = {"system": system.to_json(), "result": result.to_json(),
               "text": format_digit_string(result)}
    lines = []
    if trace is not None:
        payload["trace"] = []
        for i, step in enumerate(trace):
            snap = step["string"]
            qs = {str(k): v for k, v in sorted(step["carries"].items())}
            payload["trace"].append(
                {"step": i, "kind": step["kind"], "digits": snap.to_json(),
                 "text": format_digit_string(snap), "carries": qs})
            suffix = f"   q: {qs}" if qs else ""
            lines.append(
                f"[{i}] {step['kind']:18s} {format_digit_string(snap)}{suffix}")
    _emit(args, payload, "\n".join(lines + [format_digit_string(result)]))
    return EXIT_OK


def cmd_convert(args) -> int:
    base = parse_base(args.base)
    if args.alphabet:
        pair = rules_for_alphabet(base, parse_alphabet(args.alphabet))
        rule = pair.sde if args.sde else pair.gde
        if rule is None:
            raise UnsupportedAlphabetError(
                "that eliminator does not exist for this alphabet")
    else:
        rule = canonical_gde(base)
        if args.sde:
            rule = negate_rule(rule)
    ds = _read_digit_string(args.input)
    out = apply_rule(rule, ds)
    payload = {"base": base.to_json(), "rule": rule.name,
               "anticipation": rule.anticipation, "memory": rule.memory,
               "input": ds.to_json(), "result": out.to_json(),
               "text": format_digit_string(out)}
    if args.trace:
        a = rule.input_alphabet
        step = PassFacts(rule, a.m, a.M)
        qs = step.carries(step.run(ds.digits)[1], ds.msd_exponent)
        payload["carries"] = {str(k): v for k, v in sorted(qs.items())}
    _emit(args, payload, format_digit_string(out))
    return EXIT_OK


def cmd_bounds(args) -> int:
    base = parse_base(args.base)
    report = bounds_mod.minimal_alphabet_report(base)
    text = [f"base             {base.describe()}"]
    if report.ceiling_bound is not None:
        text.append(f"ceiling bound    {report.ceiling_bound}")
    if report.f1_bound is not None:
        text.append(f"|f(1)| bound     {report.f1_bound} "
                    f"(|f(1)| = {report.f1})")
    if report.direct_bound is not None:
        text.append(f"direct bound     {report.direct_bound}")
    text.append(f"minimal size     {report.minimal_size}")
    _emit(args, report.to_json(), "\n".join(text))
    return EXIT_OK


_VERIFY_CATALOG = [
    ("-2", "0..2"), ("3/2", "0..4"), ("-3/2", "0..4"),
    ("pisot-:3", "0..2"), ("pisot+:2", "0..3"),
    ("root:2,2,+", "0..2"), ("-1+i", "0..4"), ("2i", "0..4"),
    ("isqrt2", "0..2"), ("2", "0..2"),
]


def _load_rule(path: str):
    """The rule in a JSON file; a file that cannot be read as one is a
    RuleFileError, naming the missing key when one is missing."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise RuleFileError(f"cannot read rule file {path!r}: "
                            f"{exc.strerror}", path=path) from None
    except ValueError as exc:
        raise RuleFileError(f"rule file {path!r} is not JSON: {exc}",
                            path=path) from None
    try:
        return rule_from_json(data)
    except KeyError as exc:
        raise RuleFileError(f"rule file {path!r} lacks the key {exc}",
                            path=path) from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise RuleFileError(f"rule file {path!r} is not a rule: {exc}",
                            path=path) from None


def cmd_verify(args) -> int:
    # the oracle needs numpy, which only verify, bench and long adds load
    from .oracle import (
        MAX_BATCH_DIGITS, verify_addition, verify_boundary,
        verify_congruence, verify_conversion,
    )

    if args.rule_file and not args.base:
        print("verify: --rule-file needs --base", file=sys.stderr)
        return EXIT_USAGE
    # no shorter sweep sees a whole window; below 1 it would check nothing
    within("max_len", args.max_len, 1, MAX_BATCH_DIGITS)
    reports = []
    for base_text, alpha_text in ([(args.base, args.alphabet)] if args.base
                                  else _VERIFY_CATALOG):
        base = parse_base(base_text)
        rule = (_load_rule(args.rule_file) if args.rule_file
                else canonical_gde(base))
        reports.append(verify_conversion(
            rule, base, max(args.max_len, rule.window_length),
            budget=args.budget))
        if args.rule_file:  # a rule file is checked as a conversion only
            break
        try:
            reports.append(verify_congruence(rule, base))
        except NotApplicableError:
            pass
        if base.is_real_gt1:
            reports.append(verify_boundary(rule, base))
        if alpha_text:
            system = make_system(base, parse_alphabet(alpha_text))
            reports.append(verify_addition(build_pipeline(system),
                                           n_pairs=args.pairs,
                                           max_len=min(args.max_len, 8)))
    ok = all(r.passed for r in reports)
    payload = {"passed": ok, "reports": [r.to_json() for r in reports]}
    lines = [f"{'PASS' if r.passed else 'FAIL'}  {r.subject} "
             f"({r.instances_checked} instances)" for r in reports]
    if not ok:
        for r in reports:
            for f in r.failures[:3]:
                lines.append(f"  witness: {f}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_bench(args) -> int:
    base = parse_base(args.base)
    if args.alphabet:
        alphabet = parse_alphabet(args.alphabet)
    else:
        rule = canonical_gde(base)
        alphabet = rule.output_alphabet
    system = make_system(base, alphabet)
    pipeline = build_pipeline(system)
    counts = sorted({1, args.workers})
    result = run_benchmark(pipeline, length=args.length,
                           worker_counts=tuple(counts))
    n_passes = len(pipeline.plan)
    lines = [f"base {base.describe()}  alphabet {alphabet}  "
             f"length {args.length}  passes {n_passes}"]
    for w in counts:
        secs = result.timings[w]
        thr = args.length * n_passes / secs if secs else float("inf")
        lines.append(f"  {w} worker(s), {result.workers_used[w]} used: "
                     f"{secs:8.3f} s   {thr / 1e6:6.2f} M digit-passes/s")
    if result.ripple_seconds:
        lines.append(f"  ripple ref : {result.ripple_seconds:8.3f} s")
    lines.append(f"outputs identical: {result.outputs_identical}")
    if result.ripple_value_match is not None:
        lines.append(f"ripple value match: {result.ripple_value_match}")
    _emit(args, result.to_json(), "\n".join(lines))
    return EXIT_OK if result.passed else EXIT_VERIFY


# --- argument plumbing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="paradd",
        description="Parallel addition in non-standard numeration systems")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")

    p = sub.add_parser("expand", help="expand a number into digits")
    p.add_argument("--base", required=True)
    p.add_argument("--euclid", metavar="N")
    p.add_argument("--greedy", metavar="X")
    p.add_argument("--window", metavar="M,X",
                   help="alphabet shift m and the number, comma separated")
    p.add_argument("--symmetric", metavar="X")
    p.add_argument("--max-digits", type=int, default=64, help=(
        f"digits counted from the first nonzero one, 1 to {MAX_DIGITS}"))
    p.add_argument("--check", action="store_true")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("add", help="parallel addition over an alphabet")
    p.add_argument("--base", required=True)
    p.add_argument("--alphabet", required=True, metavar="m..M")
    p.add_argument("--subtract", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("x")
    p.add_argument("y")
    common(p)
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("convert", help="apply a digit-set conversion")
    p.add_argument("--base", required=True)
    p.add_argument("--alphabet", metavar="m..M")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--gde", action="store_true",
                       help="top-digit eliminator (default)")
    group.add_argument("--sde", action="store_true",
                       help="bottom-digit eliminator")
    p.add_argument("--trace", action="store_true")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("bounds", help="alphabet-size lower bounds")
    p.add_argument("--base", required=True)
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the verification oracle")
    p.add_argument("--base")
    p.add_argument("--alphabet", metavar="m..M")
    p.add_argument("--rule-file", help="verify a rule exported as JSON")
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--budget", type=int, default=10 ** 7)
    p.add_argument("--pairs", type=int, default=2000)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="parallel vs sequential timing")
    p.add_argument("--base", required=True)
    p.add_argument("--alphabet", metavar="m..M")
    p.add_argument("--length", type=int, default=10 ** 6,
                   help=f"operand digits, {MIN_LENGTH} to {MAX_LENGTH}")
    p.add_argument("--workers", "--threads", type=int, default=8,
                   dest="workers")
    common(p)
    p.set_defaults(func=cmd_bench)
    return top


_VALUE_OPTS = {
    "--base", "--alphabet", "--euclid", "--greedy", "--window",
    "--symmetric", "--max-digits", "--length", "--workers", "--threads",
    "--budget", "--max-len", "--pairs", "--rule-file",
}


def _preprocess(argv):
    """Make argparse safe for values starting with '-' (bases, digits).

    Value-taking options are merged into --opt=value tokens and all
    positionals are moved behind a '--' separator.
    """
    if not argv:
        return argv
    out = [argv[0]]
    positional = []
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            positional.extend(argv[i + 1:])
            break
        if tok.startswith("--"):
            name = tok.split("=", 1)[0]
            if "=" not in tok and name in _VALUE_OPTS and i + 1 < len(argv):
                out.append(f"{tok}={argv[i + 1]}")
                i += 2
                continue
            out.append(tok)
        else:
            positional.append(tok)
        i += 1
    if positional:
        out.append("--")
        out.extend(positional)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_preprocess(list(argv)))
        if [] in vars(args).values():  # argparse turns a value "--" into []
            parser.error("'--' is not a value")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (NumerationError, ValueError) as exc:
        _fail(args, exc)
        return getattr(exc, "exit_code", EXIT_USAGE)


def _fail(args, exc) -> None:
    if getattr(args, "json", False) and isinstance(exc, NumerationError):
        print(json.dumps(exc.to_json(), sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
