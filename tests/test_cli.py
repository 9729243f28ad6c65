"""Command-line front end: worked examples and exit codes."""

import json

import pytest

from paradd.cli import main, parse_alphabet, parse_base
from paradd.core import Alphabet, negative_root_base, rational_base


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


class TestBounds:
    def test_complex_base_bound(self, capsys):
        code, out, _ = run(capsys, "bounds", "--base", "-1+i", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["minimal_size"] == 5

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "bounds", "--base", "pisot+:3")
        assert code == 0 and "5" in out

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


class TestErrors:
    def test_unknown_base(self, capsys):
        code, _, _ = run(capsys, "bounds", "--base", "7i")
        assert code in (2, 3)

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2
