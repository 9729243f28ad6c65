"""Command-line front end: worked examples and exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import paradd

from paradd import bench, cli, errors, kernel
from paradd.adder import MIN_ARRAY_DIGITS, build_pipeline, reduce_to_alphabet
from paradd.cli import (
    _VERIFY_CATALOG, MAX_DIGITS, main, parse_alphabet, parse_base,
)
from paradd.core import (
    Alphabet, DigitString, digitwise_negate, digitwise_sum,
    format_digit_string, make_system, negative_root_base, parse_digit_string,
    rational_base,
)
from paradd.local import apply_rule, negate_rule
from paradd.rules import canonical_gde, rules_for_alphabet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_base_mnemonics(self):
        assert parse_base("-2").kind == "negative-integer"
        assert parse_base("3/2") == rational_base(3, 2)
        assert parse_base("-1+i") == negative_root_base(4, 4)
        assert parse_base("2i") == negative_root_base(4, 2)
        assert parse_base("isqrt2") == negative_root_base(2, 2)
        assert parse_base("root:2,2,+").kind == "root"
        assert parse_base("pisot-:3").param("a") == 3

    def test_alphabet_syntax(self):
        assert parse_alphabet("-1..3") == Alphabet(-1, 3)
        assert parse_alphabet("0..2") == Alphabet(0, 2)


class TestExpand:
    def test_euclid_example(self, capsys):
        code, out, _ = run(capsys, "expand", "--base", "3/2",
                           "--euclid", "4")
        assert code == 0
        assert "2 1 ." in out

    def test_negative_input_positive_base(self, capsys):
        code, _, err = run(capsys, "expand", "--base", "3/2",
                           "--euclid", "-4")
        assert code == 3

    def test_greedy(self, capsys):
        code, out, _ = run(capsys, "expand", "--base", "10",
                           "--greedy", "25")
        assert code == 0 and "2 5 ." in out

    @pytest.mark.parametrize("flag, value", [
        ("--greedy", "1/0"), ("--window", "0,1/0"), ("--symmetric", "1/0")])
    def test_zero_denominator_is_bad_input(self, capsys, flag, value):
        code, _, err = run(capsys, "expand", "--base", "10", "--json",
                           flag, value)
        assert code == 2
        assert json.loads(err)["error"] == "invalid-number"

    @pytest.mark.parametrize("digits, code", [
        (-5, 2), (0, 2), (1, 0), (MAX_DIGITS, 0), (MAX_DIGITS + 1, 2),
        (10 ** 8, 2)])
    def test_max_digits_range(self, capsys, digits, code):
        # 1/2 ends after one digit, so an accepted cap runs no long expansion
        got, out, err = run(capsys, "expand", "--base", "2", "--greedy",
                            "1/2", "--max-digits", str(digits), "--json")
        assert got == code
        if code:
            assert out == ""
            assert json.loads(err)["error"] == "limit-exceeded"
        else:
            assert json.loads(out)["text"] == ". 1"

    def test_check_encloses_one_tenth(self, capsys):
        code, out, _ = run(capsys, "expand", "--base", "10", "--greedy",
                           "1/10", "--check", "--json")
        box = json.loads(out)["check_enclosure"]
        assert code == 0 and box["im"] == [0.0, 0.0]
        lo, hi = box["re"]
        assert Fraction(lo) <= Fraction(1, 10) <= Fraction(hi)

    def test_check_past_the_float_range(self, capsys):
        # the near end is the largest float, the far end infinite
        code, out, _ = run(capsys, "expand", "--base", "10", "--greedy",
                           str(10 ** 400), "--check", "--json")
        assert code == 0
        assert json.loads(out)["check_enclosure"]["re"] == [
            1.7976931348623157e308, math.inf]

    def test_check_runs_without_mpmath(self):
        code = """
import sys
sys.modules["mpmath"] = None
import paradd
from paradd.cli import main
assert main(["expand", "--base", "pisot-:3", "--greedy", "5",
             "--max-digits", "40", "--check", "--json"]) == 0
"""
        src = str(Path(paradd.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       capture_output=True,
                       env={**os.environ, "PYTHONPATH": src})

    @pytest.mark.parametrize("argv, digits, lsd", [
        (["--greedy", "1e-70"], [1], -70),
        (["--greedy", "1e-3", "--max-digits", "2"], [1], -3),
        (["--greedy", "1e3", "--max-digits", "2"], [1], 3),
        (["--symmetric", "-1e-400"], [-1], -400)])
    def test_budget_counts_from_the_first_nonzero_digit(self, capsys, argv,
                                                        digits, lsd):
        code, out, _ = run(capsys, "expand", "--base", "10", *argv, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["exact"]
        assert payload["digits"] == {"digits": digits, "lsd_exponent": lsd}

    def test_huge_square_root_base(self, capsys):
        code, out, _ = run(capsys, "expand", "--base",
                           f"root:{10 ** 400 + 1},2,+", "--greedy", "5")
        assert code == 0 and out.strip() == "5 ."


class TestConvert:
    def test_worked_conversion(self, capsys):
        code, out, _ = run(capsys, "convert", "--base", "-2", "--gde",
                           "3 .")
        assert code == 0
        assert "1 1 1 ." in out

    def test_bad_digit_string(self, capsys):
        code, _, _ = run(capsys, "convert", "--base", "-2", "--gde",
                         "1 . 2 . 3")
        assert code == 2

    @staticmethod
    def _applied(rule, text):
        return format_digit_string(apply_rule(rule, parse_digit_string(text)))

    @pytest.mark.parametrize("alphabet,flag,text", [
        ("0..2", "--gde", "3 3 ."), ("-1..1", "--gde", "2 2 ."),
        ("-1..1", "--sde", "1 -2 .")])
    def test_alphabet_picks_its_eliminator(self, capsys, alphabet, flag,
                                           text):
        pair = rules_for_alphabet(parse_base("-2"), parse_alphabet(alphabet))
        rule = pair.sde if flag == "--sde" else pair.gde
        code, out, _ = run(capsys, "convert", "--base", "-2",
                           f"--alphabet={alphabet}", flag, text)
        assert code == 0
        assert out.strip() == self._applied(rule, text)

    def test_missing_eliminator_is_refused(self, capsys):
        assert rules_for_alphabet(parse_base("-2"), Alphabet(0, 2)).sde is None
        code, out, err = run(capsys, "convert", "--base", "-2", "--alphabet",
                             "0..2", "--sde", "1 .")
        assert (code, out) == (4, "")
        assert "that eliminator does not exist for this alphabet" in err

    def test_sde_negates_the_canonical_gde(self, capsys):
        code, out, _ = run(capsys, "convert", "--base", "-2", "--sde",
                           "-3 .")
        assert code == 0
        assert out.strip() == "-1 -1 -1 ."
        rule = negate_rule(canonical_gde(parse_base("-2")))
        assert out.strip() == self._applied(rule, "-3 .")

    def test_trace_json_reports_carries(self, capsys):
        code, out, _ = run(capsys, "convert", "--base", "-2", "--gde",
                           "--trace", "--json", "3 .")
        assert code == 0
        payload = json.loads(out)
        assert payload["carries"] == {"0": 1, "1": -1}
        assert payload["text"] == self._applied(
            canonical_gde(parse_base("-2")), "3 .")


class TestAdd:
    def test_simple_sum(self, capsys):
        code, out, _ = run(capsys, "add", "--base", "-2",
                           "--alphabet", "0..2", "1 1 .", "1 .")
        assert code == 0
        assert "0 ." in out or "." in out

    def test_unsupported_alphabet_exit_code(self, capsys):
        code, _, _ = run(capsys, "add", "--base", "3/2",
                         "--alphabet", "-1..3", "1 .", "1 .")
        assert code == 4

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "add", "--base", "-2",
                           "--alphabet", "0..2", "--trace", "2 2 .", "1 1 .")
        assert code == 0
        assert "pass" in out.lower() or "top" in out.lower()

    # signed bytes; an alphabet that no byte holds; bytes into an int16 plan
    @pytest.mark.parametrize("base, alphabet, flags", [
        ("-2", "-1..1", ["--subtract"]), ("-1000", "0..1000", []),
        ("pisot-:100", "0..99", [])])
    def test_long_operands_take_the_kernel(self, capsys, monkeypatch, base,
                                          alphabet, flags):
        system = make_system(parse_base(base), parse_alphabet(alphabet))
        al, pipe = system.alphabet, build_pipeline(system)
        rng = random.Random(base)
        x, y = ([rng.randint(al.m, al.M) for _ in range(MIN_ARRAY_DIGITS + k)]
                for k in (0, 7))
        calls, add_strings = [], kernel.add_strings

        def spy(*args):
            calls.append(args)
            return add_strings(*args)

        def text(digits):
            return " ".join(map(str, digits)) + " ."

        monkeypatch.setattr(kernel, "add_strings", spy)
        argv = ["add", "--base", base, "--alphabet", alphabet, "--json",
                *flags]
        code, out, _ = run(capsys, *argv, text(x), text(y))
        assert (code, len(calls)) == (0, 1)
        X, Y = DigitString(tuple(x)), DigitString(tuple(y))
        want = reduce_to_alphabet(
            digitwise_sum(X, digitwise_negate(Y) if flags else Y), pipe)
        assert json.loads(out)["result"] == want.to_json()
        # a bad digit at the last place: the same refusal on both runners
        bad = text(x[:-1] + [al.M + 1])
        refusals = [run(capsys, *argv, *trace, bad, text(y))
                    for trace in ([], ["--trace"])]
        assert refusals[0] == refusals[1]
        assert refusals[0][0] == errors.DigitOutOfAlphabetError.exit_code
        assert json.loads(refusals[0][2])["digit"] == al.M + 1
        assert len(calls) == 2


class TestBounds:
    def test_complex_base_bound(self, capsys):
        code, out, _ = run(capsys, "bounds", "--base", "-1+i", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["minimal_size"] == 5

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "bounds", "--base", "pisot+:3")
        assert code == 0 and "5" in out

    def test_huge_prime_degree_root_is_fast(self, capsys):
        # minimal_form tries only exponents e with 2**e <= b, not every
        # divisor of k, and no dense polynomial of degree k is built
        t0 = time.process_time()
        code, out, _ = run(capsys, "bounds", "--base", "root:2,30000000,+",
                           "--json")
        assert time.process_time() - t0 < 0.1
        assert code == 0 and json.loads(out)["minimal_size"] == 3

    def test_non_minimal_root_is_answered(self, capsys):
        # 4**(1/4) = sqrt(2): the same bounds as root:2,2,+
        code, out, _ = run(capsys, "bounds", "--base", "root:4,4,+",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert (data["f1"], data["minimal_size"]) == (1, 3)
        assert "f1_proven_minimal" not in data

    def test_reducible_negative_root_refused(self, capsys):
        code, _, err = run(capsys, "bounds", "--base", "root:8,3,-", "--json")
        assert code == 3
        assert json.loads(err)["error"] == "unsupported-base"

    def test_huge_cube_root_base(self, capsys):
        b = 10 ** 400 + 1
        code, out, _ = run(capsys, "bounds", "--base", f"root:{b},3,+",
                           "--json")
        assert code == 0
        ceiling = json.loads(out)["ceiling_bound"]
        assert (ceiling - 1) ** 3 < b < ceiling ** 3


class TestVerify:
    def test_good_system_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--base", "-2",
                           "--alphabet", "0..2", "--max-len", "4",
                           "--pairs", "200")
        assert code == 0

    def test_reports_carry_timings(self, capsys):
        code, out, _ = run(capsys, "verify", "--base", "3/2",
                           "--alphabet", "0..4", "--max-len", "4",
                           "--pairs", "200", "--json")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 3  # conversion, boundary, addition
        for report in reports:
            assert report["elapsed_s"] > 0
            assert report["instances_per_s"] == pytest.approx(
                report["instances_checked"] / report["elapsed_s"])

    def test_fault_injection_fails(self, tmp_path, capsys):
        from paradd.rules import gde_negative_integer
        data = gde_negative_integer(2).to_json()
        key = next(k for k, v in data["carry"]["selector_table"].items()
                   if v != 0)
        data["carry"]["selector_table"][key] = 0
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        code, _, _ = run(capsys, "verify", "--base", "-2",
                         "--rule-file", str(path), "--max-len", "4")
        assert code == 1

    def test_sweep_reaches_the_window(self, tmp_path, capsys):
        # pisot-:3's rule as a table with the entry of 1111111 raised by 1:
        # no string shorter than its window of 7 holds that window whole
        from paradd.rules import canonical_gde
        rule = canonical_gde(parse_base("pisot-:3"))
        assert rule.window_length == 7
        data = rule.to_json()
        del data["carry"]
        data["table"] = {
            " ".join(map(str, w)): rule.phi(w) + (w == (1,) * 7)
            for w in itertools.product(list(rule.input_alphabet), repeat=7)}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--base", "pisot-:3",
                           "--rule-file", str(path), "--json")
        assert code == 1
        failures = json.loads(out)["reports"][0]["failures"]
        assert {tuple(f["input"]) for f in failures} == {(1,) * 7}

    @pytest.mark.parametrize("flag, value", [
        ("--max-len", "0"), ("--max-len", "-1"),
        ("--pairs", "-4"), ("--pairs", "0"),
        ("--pairs", str(10 ** 7)),         # 10**7 pairs of 2 digits
        ("--max-len", str(10 ** 12)),      # 10**5 samples of 10**12 digits
        ("--budget", str(10 ** 12)),
    ])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_out_of_range_size_refused(self, capsys, flag, value,
                                       json_flag):
        code, out, err = run(capsys, "verify", "--base", "-2",
                             "--alphabet", "0..2", "--max-len", "2",
                             flag, value, *json_flag)
        assert code == 2
        assert out == ""  # no PASS for a check that examined nothing
        if json_flag:
            assert json.loads(err)["error"] == "limit-exceeded"
        assert "negative dimensions" not in err

    def test_closed_pipe_is_no_failure(self):
        # the JSON report, about 12 kB, outgrows the pipe's buffer, so the
        # writer meets the closed pipe inside print
        src = str(Path(paradd.__file__).resolve().parents[1])
        with subprocess.Popen(
                [sys.executable, "-m", "paradd.cli", "verify", "--max-len",
                 "3", "--pairs", "10", "--json"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src}) as proc:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) != 1
        assert "Traceback" not in err, err


    @pytest.mark.parametrize("form, key", [("carry", "2 1"),
                                           ("table", "2 1 0")])
    def test_incomplete_rule_file_is_bad_input(self, tmp_path, capsys,
                                               form, key):
        from paradd.rules import gde_negative_integer
        rule = gde_negative_integer(2)
        data = rule.to_json()
        if form == "table":
            del data["carry"]
            data["table"] = {" ".join(map(str, w)): rule.phi(w)
                             for w in itertools.product(
                                 rule.input_alphabet,
                                 repeat=rule.window_length)}
            table = data["table"]
        else:
            table = data["carry"]["selector_table"]
        del table[key]
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", "--base", "-2", "--json",
                           "--rule-file", str(path))
        assert code == 2
        error = json.loads(err)
        assert error["error"] == "invalid-rule-file"
        assert error["window"] == [int(d) for d in key.split()]

    @pytest.mark.parametrize("content, reason", [
        (None, "cannot read"),
        ('{"name": "x"}', "lacks the key 'input_alphabet'"),
        ('{"name": ', "is not JSON"),
        ("[1, 2]", "is not a rule"),
    ])
    def test_bad_rule_file_is_bad_input(self, tmp_path, capsys, content,
                                        reason):
        path = tmp_path / "rule.json"
        if content is not None:
            path.write_text(content)
        code, _, err = run(capsys, "verify", "--base", "-2", "--json",
                           "--rule-file", str(path))
        assert code == 2
        data = json.loads(err)
        assert data["error"] == "invalid-rule-file"
        assert reason in data["message"]


def test_import_leaves_numpy_out():
    # only verify, bench and long operands need numpy; the oracle's names
    # load it on first use
    code = """
import sys, paradd, paradd.cli
from paradd.adder import build_pipeline
from paradd.cli import main, parse_alphabet, parse_base
from paradd.core import make_system
for base, alphabet in [("-2", "0..2"), ("-2", "-1..1"), ("3/2", "0..4"),
                       ("-3/2", "0..4"), ("pisot-:3", "0..2"),
                       ("pisot+:2", "0..3"), ("-1+i", "0..4")]:
    build_pipeline(make_system(parse_base(base), parse_alphabet(alphabet)))
digits = " ".join(["1"] * 24) + " ."
for flag in ([], ["--subtract"]):
    assert main(["add", "--base", "-2", "--alphabet", "-1..1", *flag,
                 digits, digits]) == 0
# one digit short of adder.MIN_ARRAY_DIGITS
digits = " ".join(["1", "0", "-1"] * 333) + " ."
for flag in ([], ["--subtract"]):
    assert main(["add", "--base", "-2", "--alphabet", "-1..1", *flag,
                 digits, digits]) == 0
assert 'numpy' not in sys.modules
from paradd import verify_conversion
assert 'numpy' in sys.modules
"""
    src = str(Path(paradd.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   capture_output=True, env={**os.environ, "PYTHONPATH": src})


class TestBench:
    def test_reports_workers_used(self, capsys):
        code, out, _ = run(capsys, "bench", "--base", "-2", "--length",
                           "1000", "--workers", "8")
        assert code == 0
        assert "8 worker(s), 1 used:" in out
        code, out, _ = run(capsys, "bench", "--base", "-2", "--length",
                           "1000", "--workers", "8", "--json")
        assert json.loads(out)["workers_used"] == {"1": 1, "8": 1}

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_refused(self, capsys, workers):
        code, _, err = run(capsys, "bench", "--base", "-2", "--workers",
                           workers, "--json")
        assert code == 2
        assert json.loads(err)["error"] == "invalid-worker-count"

    @pytest.mark.parametrize("base, length", [
        ("-2", "999"),               # below bench.MIN_LENGTH
        ("-2", str(10 ** 12)),       # above bench.MAX_LENGTH
        ("101/100", str(5 * 10 ** 5 + 1)),  # 200 passes: above the cap
    ])
    def test_oversized_request_refused(self, capsys, base, length):
        code, _, err = run(capsys, "bench", "--base", base, "--length",
                           length, "--json")
        assert code == 2
        assert json.loads(err)["error"] == "limit-exceeded"

    def test_one_digit_pass_above_the_cap_refused(self, capsys,
                                                  monkeypatch):
        # at the cap -2's 2 passes of 1 000 digits run; one digit-pass
        # above it nothing is drawn, let alone run
        import numpy
        argv = ["bench", "--base", "-2", "--alphabet", "0..2", "--length",
                "1000", "--json"]
        monkeypatch.setattr(bench, "MAX_DIGIT_PASSES", 2 * 1000)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(bench, "MAX_DIGIT_PASSES", 2 * 1000 - 1)
        monkeypatch.setattr(numpy.random, "default_rng", None)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(err) == {
            "error": "limit-exceeded", "digit_passes": 2000, "limit": 1999,
            "message": "benchmark of 1000 digits through 2 passes needs 2000 "
                       "digit-passes per call, above 1999"}

    def test_wide_alphabet_runs(self, capsys):
        # pisot-:100 reads classes of 101 digits: 27 + 1 024 table entries
        code, out, _ = run(capsys, "bench", "--base", "pisot-:100",
                           "--length", "1000", "--json")
        assert code == 0
        assert json.loads(out)["passed"]


def _error_classes(cls=errors.NumerationError):
    return [cls] + [c for sub in cls.__subclasses__()
                    for c in _error_classes(sub)]


# every error not named here exits with 2, as a bare ValueError does
_EXIT_CODES = {
    errors.UnsupportedAlphabetError: 4, errors.AlphabetTooSmallError: 4,
    errors.AlphabetLacksNegativesError: 4, errors.UnsupportedBaseError: 3,
    errors.NotApplicableError: 3, errors.NegativeInputError: 3,
    errors.NotInWindowError: 3,
}


class TestErrors:
    def test_unknown_base(self, capsys):
        code, _, _ = run(capsys, "bounds", "--base", "7i")
        assert code in (2, 3)

    @pytest.mark.parametrize("cls", _error_classes() + [ValueError],
                             ids=lambda cls: cls.__name__)
    def test_exit_code_of_each_error(self, capsys, monkeypatch, cls):
        extra = {"offset": 0} if cls is errors.DigitStringSyntaxError else {}

        def fail(args):
            raise cls("refused", **extra)

        monkeypatch.setattr(cli, "cmd_bounds", fail)
        code, out, err = run(capsys, "bounds", "--base", "2", "--json")
        assert code == _EXIT_CODES.get(cls, 2) and out == ""
        if cls is not ValueError:
            assert json.loads(err)["error"] == cls.code

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["add", "--base", "--", "--alphabet", "0..2", "1 .", "1 ."],
        ["bench", "--base=-2", "--length=--"],
        ["expand", "--base", "10", "--greedy", "--"]])
    def test_dash_dash_value_is_bad_input(self, capsys, argv):
        # argparse hands a value "--" on as an empty list
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "'--' is not a value" in err


# catalog bases, their neighbours and texts that are not bases at all
_FUZZ_BASES = ["-2", "3/2", "-3/2", "pisot-:3", "pisot+:2", "root:2,2,+",
               "-1+i", "2i", "isqrt2", "2", "10", "-10", "1", "0", "1/0",
               "2/4", "-1/2", "root:2,0,+", "root:0,2,-", "root:2,2",
               "pisot-:2", "pisot+:0", "pisot-:x", "i", ""]
_ALPHABETS = ["0..2", "0..3", "0..4", "-1..1", "-2..2", "0..10", "1..3",
              "0..1", "2..0", "0..", "a..b", "0..2..4", ""]
_GARBAGE = st.lists(st.sampled_from(
    [str(d) for d in range(-4, 13)] + [".", ".", "x", "1.5", "--1", "+"]),
    max_size=8).map(" ".join)
_DIGITS = st.lists(st.integers(0, 2), max_size=5).map(
    lambda ds: " ".join(map(str, ds)))
# strings in the grammar, with digits in every catalog alphabet, or not
_DIGIT_TEXTS = st.one_of(st.builds("{} . {}".format, _DIGITS, _DIGITS),
                         _GARBAGE)


# catalog systems as they are, or a base and an alphabet drawn apart
_CATALOG = st.sampled_from(_VERIFY_CATALOG + [("-2", "-1..1"),
                                              ("-3/2", "-2..2")])
_SYSTEMS = st.one_of(
    _CATALOG,
    st.tuples(st.one_of(st.sampled_from(_FUZZ_BASES), st.text(max_size=8)),
              st.one_of(st.sampled_from(_ALPHABETS),
                        st.builds("{}..{}".format, st.integers(-5, 3),
                                  st.integers(-3, 12)),
                        st.text(max_size=6))))


@settings(max_examples=300, deadline=None)
@given(system=_SYSTEMS, x=_DIGIT_TEXTS, y=_DIGIT_TEXTS,
       flags=st.sets(st.sampled_from(["--subtract", "--trace", "--json"])))
def test_add_fuzz_exits_cleanly(system, x, y, flags):
    # every request ends in an exit code: no exception, no traceback
    base, alphabet = system
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["add", "--base", base, "--alphabet", alphabet,
                     *sorted(flags), x, y])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert err.getvalue() and not out.getvalue()


_NUMBERS = st.one_of(
    st.builds("{}/{}".format, st.integers(-10 ** 6, 10 ** 6),
              st.integers(-2, 999)),
    st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-400, 400)),
    st.sampled_from(["0", "-0", "0.5", "1/0", "inf", "nan", "x", "", "--1"]))
_REAL_BASES = ["2", "10", "3/2", "7/4", "11/10", "pisot-:3", "pisot-:4",
               "pisot+:2", "pisot+:5", "root:2,2,+", "root:5,2,+"]
_EXPAND_BASES = _FUZZ_BASES + _REAL_BASES + ["root:2,3,+"]
_EXPAND_KIND = st.one_of(
    st.tuples(st.just("--greedy"), _NUMBERS),
    st.tuples(st.just("--symmetric"), _NUMBERS),
    st.tuples(st.just("--window"),
              st.builds("{},{}".format, st.integers(-12, 2), _NUMBERS)),
    st.tuples(st.just("--euclid"), st.one_of(
        st.integers(-10 ** 30, 10 ** 30).map(str), _NUMBERS)))
_EXPAND = st.builds(
    lambda base, kinds, digits, flags: [
        "expand", "--base", base, *(a for k in kinds for a in k),
        "--max-digits", str(digits), *flags],
    st.one_of(st.sampled_from(_REAL_BASES), st.sampled_from(_EXPAND_BASES)),
    st.one_of(_EXPAND_KIND.map(lambda kind: [kind]),
              st.lists(_EXPAND_KIND, max_size=2)),
    st.integers(-1, 300),
    st.sets(st.sampled_from(["--check", "--json"])))
_SYSTEM_ARGS = _SYSTEMS.flatmap(lambda sa: st.sampled_from([
    ["--base", sa[0]], ["--base", sa[0], "--alphabet", sa[1]]]))
_CONVERT = st.builds(
    lambda system, flags, x: ["convert", *system, *sorted(flags), x],
    _SYSTEM_ARGS, st.sets(st.sampled_from(
        ["--gde", "--sde", "--trace", "--json"])), _DIGIT_TEXTS)
_BOUNDS = st.builds(
    lambda base, flags: ["bounds", "--base", base, *flags],
    st.one_of(st.sampled_from(_EXPAND_BASES), st.text(max_size=8)),
    st.sampled_from([[], ["--json"]]))
# the whole catalog is swept when --base is left out, so that is rarer
_VERIFY = st.builds(
    lambda system, max_len, pairs, budget, rule, flags: [
        "verify", *system, "--max-len", str(max_len), "--pairs", str(pairs),
        *budget, *rule, *flags],
    st.one_of(_SYSTEM_ARGS, _SYSTEM_ARGS, _SYSTEM_ARGS, st.just([])),
    st.integers(-1, 3), st.integers(-1, 5),
    st.sampled_from([[], ["--budget", "0"], ["--budget", "50"],
                     ["--budget", str(10 ** 12)]]),
    st.sampled_from([[], [], ["--rule-file", "no-such-rule.json"]]),
    st.sampled_from([[], ["--json"]]))
_BENCH = st.builds(
    lambda system, length, workers, flags: [
        "bench", *system, "--length", str(length), "--workers", str(workers),
        *flags],
    _SYSTEM_ARGS, st.sampled_from([-1, 0, 999, 1000, 1000, 1000]),
    st.integers(-1, 2), st.sampled_from([[], ["--json"]]))


@settings(max_examples=300, deadline=None)
@given(argv=st.one_of(_EXPAND, _CONVERT, _BOUNDS, _VERIFY, _BENCH))
def test_other_subcommands_fuzz_exit_cleanly(argv):
    # small sizes only: no request starts a worker pool or runs long
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4) or (
        code == 1 and argv[0] in ("verify", "bench")), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code in (0, 1):
        assert out.getvalue() and not err.getvalue()
    else:
        assert err.getvalue() and not out.getvalue()
