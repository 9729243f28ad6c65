"""Independent verification oracle: exhaustive sweeps and fault injection."""

import numpy as np
import pytest

from paradd.adder import build_pipeline
from paradd.core import (
    Alphabet,
    make_system,
    negative_integer_base,
    negative_root_base,
    pisot_minus_base,
    rational_base,
)
from paradd.local import rule_from_json
from paradd.kernel import apply
from paradd.oracle import (
    values_zero_batch,
    verify_addition,
    verify_boundary,
    verify_congruence,
    verify_conversion,
)
from paradd.rules import (
    gde_negative_integer,
    gde_pisot_minus,
    gde_rational_pos,
    gde_root,
)


class TestConversionSweep:
    def test_counts_all_short_strings(self):
        # alphabet {0..3}: 4 + 16 + ... + 4^6 = 5460 instances
        rep = verify_conversion(gde_negative_integer(2),
                                negative_integer_base(2), max_len=6)
        assert rep.passed
        assert rep.instances_checked == 5460
        assert rep.exhaustive_lengths == [1, 2, 3, 4, 5, 6]
        assert rep.sampled == 0

    def test_budget_forces_sampling(self):
        rep = verify_conversion(gde_negative_integer(2),
                                negative_integer_base(2), max_len=12,
                                budget=5_000, samples=500)
        assert rep.passed
        assert rep.sampled == 500

    def test_batch_apply_matches_scalar(self):
        from paradd.core import DigitString
        from paradd.local import apply_rule
        rule = gde_rational_pos(3, 2)
        rng = np.random.default_rng(3)
        Z = rng.integers(0, 6, size=(50, 5))
        out = apply(rule, Z)
        for row, orow in zip(Z, out):
            want = apply_rule(rule, DigitString(tuple(int(v) for v in row),
                                                0))
            t, r = rule.anticipation, rule.memory
            got = {e: int(orow[len(orow) - 1 - (e + t)])
                   for e in range(-t, 5 + r)}
            for e, v in got.items():
                assert v == want.digit_at(e)


class TestValueChecks:
    def test_values_zero_batch(self):
        base = negative_integer_base(2)
        C = np.array([[0, 1, 1, -2],   # (X^2+X+1) - 3 at X = -2: zero
                      [1, 0, 0, 0],
                      [0, 0, 0, 0]], dtype=np.int64)
        flags = values_zero_batch(C, base)
        assert list(flags) == [True, False, True]

    def test_big_coefficients_fall_back_exactly(self):
        base = rational_base(3, 2)
        big = 2 ** 40
        C = np.array([[2 * big, -3 * big, 0, 0],
                      [2 * big, -3 * big, 0, 1]], dtype=np.int64)
        flags = values_zero_batch(C, base)
        assert list(flags) == [True, False]


class TestFaultInjection:
    def test_corrupted_table_is_caught(self):
        rule = gde_negative_integer(2)
        data = rule.to_json()
        # flip one non-zero selector entry
        key = next(k for k, v in data["carry"]["selector_table"].items()
                   if v != 0)
        data["carry"]["selector_table"][key] = -data["carry"][
            "selector_table"][key]
        bad = rule_from_json(data)
        rep = verify_conversion(bad, negative_integer_base(2), max_len=4)
        assert not rep.passed
        assert any(f["check"] in ("value-preservation", "output-alphabet")
                   for f in rep.failures)

    def test_zero_breaking_fault_is_caught(self):
        rule = gde_negative_integer(2)
        data = rule.to_json()
        zero_key = " ".join(["0"] * len(next(iter(
            data["carry"]["selector_table"])).split()))
        data["carry"]["selector_table"][zero_key] = 1
        bad = rule_from_json(data)
        rep = verify_conversion(bad, negative_integer_base(2), max_len=3)
        assert not rep.passed


class TestAdditionAndProperties:
    def test_addition_closure(self):
        pl = build_pipeline(make_system(negative_integer_base(2),
                                        Alphabet(0, 2)))
        rep = verify_addition(pl, n_pairs=2000, max_len=8)
        assert rep.passed and rep.instances_checked >= 2000

    def test_subtraction_included_for_signed_alphabets(self):
        pl = build_pipeline(make_system(negative_integer_base(2),
                                        Alphabet(-1, 1)))
        rep = verify_addition(pl, n_pairs=1000, max_len=6)
        assert rep.passed
        assert any("subtract" in k for k in rep.checks)

    def test_congruence_mod_f1(self):
        rep = verify_congruence(gde_negative_integer(2),
                                negative_integer_base(2))
        assert rep.passed

    def test_boundary_inequalities(self):
        rep = verify_boundary(gde_pisot_minus(3), pisot_minus_base(3))
        assert rep.passed

    def test_complex_base_sweep(self):
        rep = verify_conversion(gde_root(4, 4, True),
                                negative_root_base(4, 4), max_len=4)
        assert rep.passed
