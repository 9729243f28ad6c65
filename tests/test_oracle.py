"""Independent verification oracle: exhaustive sweeps and fault injection."""

import itertools

import numpy as np
import pytest

from paradd import oracle
from paradd.adder import build_pipeline
from paradd.algebra import values_equal
from paradd.core import (
    Alphabet,
    DigitString,
    make_system,
    negative_integer_base,
    negative_rational_base,
    negative_root_base,
    normalize,
    pisot_minus_base,
    pisot_plus_base,
    rational_base,
)
from paradd.errors import LimitExceededError
from paradd.local import apply_rule, rule_from_json
from paradd.adder import PassFacts
from paradd.kernel import Plan, run_plan
from paradd.oracle import (
    MAX_BATCH_DIGITS,
    MAX_BUDGET,
    values_zero_batch,
    verify_addition,
    verify_boundary,
    verify_congruence,
    verify_conversion,
)
from paradd.rules import (
    doubling_reducer,
    gde_negative_integer,
    gde_pisot_minus,
    gde_pisot_plus,
    gde_rational_neg,
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

    def test_enumeration_yields_every_string_once(self, monkeypatch):
        # a signed alphabet {-1..2}, and blocks that split every length
        rule = build_pipeline(make_system(negative_integer_base(2),
                                          Alphabet(-1, 1))).plan[0][1]
        letters = list(rule.input_alphabet)
        seen = []

        run = Plan.run

        def record(plan, D):
            out = run(plan, D)
            # D is in the plan's dtype, so the kernel copies nothing
            assert out.dtype == D.dtype == plan.dtype
            assert D.flags.c_contiguous
            seen.extend(tuple(col) for col in D.T.tolist())
            return out

        monkeypatch.setattr(oracle, "_BLOCK", 1)
        monkeypatch.setattr(Plan, "run", record)
        rep = verify_conversion(rule, negative_integer_base(2), max_len=4)
        assert rep.passed
        want = [w for L in range(1, 5)
                for w in itertools.product(letters, repeat=L)]
        assert seen == want  # each string once, in code order
        assert rep.instances_checked == sum(4 ** L for L in range(1, 5))

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
        out = Plan([PassFacts(rule, 0, 5)]).run(Z.T).T
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
        flags = values_zero_batch(C.T, base)
        assert list(flags) == [True, False, True]

    def test_big_coefficients_fall_back_exactly(self):
        base = rational_base(3, 2)
        big = 2 ** 40
        C = np.array([[2 * big, -3 * big, 0, 0],
                      [2 * big, -3 * big, 0, 1]], dtype=np.int64)
        flags = values_zero_batch(C.T, base)
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

    def test_witnesses_are_failing_strings(self):
        rule = gde_negative_integer(2)
        data = rule.to_json()
        table = data["carry"]["selector_table"]
        for key in list(table)[1::5]:
            table[key] += 1
        bad = rule_from_json(data)
        base = negative_integer_base(2)
        rep = verify_conversion(bad, base, max_len=4)
        witnesses = [f for f in rep.failures if "input" in f]
        assert witnesses
        out_alphabet = bad.output_alphabet
        for f in witnesses:
            assert 1 <= len(f["input"]) <= 4
            x = DigitString(tuple(f["input"]))
            y = DigitString(tuple(f["output"]), -bad.anticipation)
            assert normalize(y) == apply_rule(bad, x)
            if f["check"] == "value-preservation":
                assert not values_equal(x, y, base)
            else:
                assert any(d not in out_alphabet for d in y.digits)

    def test_zero_breaking_fault_is_caught(self):
        rule = gde_negative_integer(2)
        data = rule.to_json()
        zero_key = " ".join(["0"] * len(next(iter(
            data["carry"]["selector_table"])).split()))
        data["carry"]["selector_table"][zero_key] = 1
        bad = rule_from_json(data)
        rep = verify_conversion(bad, negative_integer_base(2), max_len=3)
        assert not rep.passed

    def test_zero_window_fault_is_reported(self):
        # q(0) = 1 makes Phi(0, 0) = -3 + 2; the scalar apply_rule maps
        # the zero string to zero without reading Phi, the check does not
        data = gde_rational_pos(3, 2).to_json()
        data["carry"]["selector_table"]["0"] += 1
        rep = verify_conversion(rule_from_json(data), rational_base(3, 2),
                                max_len=2)
        assert {"check": "zero-to-zero"} in rep.failures


def _brute_force_failures(rule, base, max_len, span):
    """The failures ``verify_conversion`` must report, found string by
    string with the scalar ``apply_rule``: per length and per ``span``
    string codes, the first 10 outside the alphabet, then the first 10
    of changed value."""
    t, r = rule.anticipation, rule.memory
    out_alphabet = rule.output_alphabet
    failures = []
    for L in range(1, max_len + 1):
        strings = itertools.product(list(rule.input_alphabet), repeat=L)
        for _, group in itertools.groupby(
                enumerate(strings), key=lambda item: item[0] // span):
            found = {"output-alphabet": [], "value-preservation": []}
            for _, digits in group:
                x = DigitString(digits)
                y = apply_rule(rule, x)
                witness = {"input": list(digits),
                           "output": [y.digit_at(e)
                                      for e in range(L - 1 + r, -t - 1, -1)]}
                if any(d not in out_alphabet for d in y.digits):
                    found["output-alphabet"].append(witness)
                if not values_equal(x, y, base):
                    found["value-preservation"].append(witness)
            for check, witnesses in found.items():
                failures += [{"check": check, **w} for w in witnesses[:10]]
    return failures


@pytest.mark.parametrize("block, chunk", [(None, None), (1, None), (5, 7)])
@pytest.mark.parametrize("form", ["carry", "table", "two"])
@pytest.mark.parametrize("make, base, max_len", [
    (lambda: gde_negative_integer(2), negative_integer_base(2), 4),
    (lambda: gde_rational_pos(3, 2), rational_base(3, 2), 4),
    (lambda: doubling_reducer(3), pisot_minus_base(3), 4),
    (lambda: gde_pisot_plus(2), pisot_plus_base(2), 4),
    (lambda: gde_rational_neg(7, 4), negative_rational_base(7, 4), 3),
])
def test_witnesses_match_brute_force(monkeypatch, make, base, max_len, form,
                                     block, chunk):
    # one selector entry raised by 1, of the carry form (whose carries keep
    # the value, so only the alphabet breaks) or of the table form (whose
    # entry is Phi - centre), or two entries of the table form, the second
    # on the window of code 1; blocks of 1 split every length, and ranges
    # of 7 codes straddle blocks of 5 or more strings
    rule = make()
    data = rule.to_json()
    if form != "carry":
        del data["carry"]
        data["table"] = {" ".join(map(str, w)): rule.phi(w) for w in
                         itertools.product(list(rule.input_alphabet),
                                           repeat=rule.window_length)}
        table = data["table"]
    else:
        table = data["carry"]["selector_table"]
    # the window (m, M, ..., M), or (M) one digit wide: its M ... M lies
    # whole in short strings, and the zero window stays fixed
    a, width = rule.input_alphabet, len(next(iter(table)).split())
    window = (a.m,) * (width > 1) + (a.M,) * max(1, width - 1)
    table[" ".join(map(str, window))] += 1
    if form == "two":
        table[list(table)[1]] += 1
    bad = rule_from_json(data)
    if block:
        monkeypatch.setattr(oracle, "_BLOCK", block)
    if chunk:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    rep = verify_conversion(bad, base, max_len=max_len)
    want = _brute_force_failures(bad, base, max_len, oracle._CHUNK)
    assert want
    assert rep.failures == want
    assert rep.instances_checked == sum(bad.input_alphabet.size ** L
                                        for L in range(1, max_len + 1))


@pytest.mark.parametrize("corrupted_first", [False, True])
def test_same_named_rules_keep_their_own_tables(corrupted_first):
    # each sweep compiles the rule it is given: a table-form copy of
    # gde(-2) with the entry of 1 1 1 raised by 1, under the same name and
    # alphabets, must still be checked with its own table
    rule = gde_negative_integer(2)
    data = rule.to_json()
    del data["carry"]
    data["table"] = {" ".join(map(str, w)): rule.phi(w) + (w == (1, 1, 1))
                     for w in itertools.product(rule.input_alphabet,
                                                repeat=rule.window_length)}
    bad = rule_from_json(data)
    assert (bad.name, bad.input_alphabet, bad.output_alphabet) == \
        (rule.name, rule.input_alphabet, rule.output_alphabet)
    base = negative_integer_base(2)
    for subject in ([bad, rule] if corrupted_first else [rule, bad]):
        rep = verify_conversion(subject, base, max_len=4)
        assert rep.passed == (subject is rule)
    rep = verify_conversion(bad, base, max_len=4)
    inputs = [" ".join(map(str, f["input"])) for f in rep.failures]
    assert "1 1 1" in inputs
    assert all("1 1 1" in x for x in inputs)


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

    def test_addition_witness_names_the_pair(self, monkeypatch):
        pl = build_pipeline(make_system(negative_integer_base(2),
                                        Alphabet(0, 2)))

        def corrupt(pipeline, Z, *args):
            out = run_plan(pipeline, Z, *args)
            out[-1, 3] += 1  # the lsd of pair 3's sum
            return out

        monkeypatch.setattr(oracle.kernel, "run_plan", corrupt)
        rep = verify_addition(pl, n_pairs=50, max_len=6, seed=4)
        rng = np.random.default_rng(4)
        x, y = (rng.integers(0, 3, size=(50, 6), dtype=np.int64)[3]
                for _ in range(2))
        want = run_plan(pl, x + y)
        want[-1] += 1
        assert rep.failures
        for f in rep.failures:
            assert f["check"].startswith("add-")
            assert (f["x"], f["y"]) == (x.tolist(), y.tolist())
            assert f["result"] == want.tolist()

    def test_values_above_int64_fall_back_column_by_column(self,
                                                           monkeypatch):
        # digits up to 2000 over 12 positions of base -1000 bound the
        # partial sums of the value form past 2**63, so the value check
        # runs values_zero_batch on the differences, one column at a time
        pl = build_pipeline(make_system(negative_integer_base(1000),
                                        Alphabet(0, 1000)))
        fallback = []

        def spy(C, base):
            fallback.append(C.shape)
            return values_zero_batch(C, base)

        monkeypatch.setattr(oracle, "values_zero_batch", spy)
        assert verify_addition(pl, n_pairs=50).passed
        assert fallback == [(12, 50)]

        def corrupt(pipeline, Z, *args):
            out = run_plan(pipeline, Z, *args)
            out[-1, 3] += 1 if out[-1, 3] < 1000 else -1  # still a digit
            return out

        monkeypatch.setattr(oracle.kernel, "run_plan", corrupt)
        rep = verify_addition(pl, n_pairs=50)
        assert len(fallback) == 2
        assert [f["check"] for f in rep.failures] == ["add-value"]
        rng = np.random.default_rng(0)
        x, y = (rng.integers(0, 1001, size=(50, 8), dtype=np.int64)[3]
                for _ in range(2))
        assert (rep.failures[0]["x"], rep.failures[0]["y"]) == (
            x.tolist(), y.tolist())

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


class _Reached(Exception):
    """Raised in place of the report, after every size was accepted."""


class TestSizeLimits:
    """Each size is refused just past its limit and accepted at it; an
    accepted call is stopped before it allocates anything."""

    @pytest.fixture(autouse=True)
    def stop_after_checks(self, monkeypatch):
        def reached(*args, **kwargs):
            raise _Reached
        monkeypatch.setattr(oracle, "VerificationReport", reached)

    @pytest.mark.parametrize("kwargs, ok", [
        ({"max_len": 1}, True),
        ({"max_len": 0}, False),
        ({"max_len": -1}, False),
        ({"max_len": MAX_BATCH_DIGITS, "samples": 1}, True),
        ({"max_len": MAX_BATCH_DIGITS + 1, "samples": 0}, False),
        ({"max_len": MAX_BATCH_DIGITS // 10 ** 5}, True),
        ({"max_len": MAX_BATCH_DIGITS // 10 ** 5 + 1}, False),
        ({"samples": -1}, False),
        ({"budget": MAX_BUDGET}, True),
        ({"budget": MAX_BUDGET + 1}, False),
        ({"budget": 0}, True),         # sampled only
        ({"budget": -1}, False),
        ({"budget": 4, "samples": 0}, True),
        ({"budget": 3, "samples": 0}, False),  # no length of 4**L fits
    ])
    def test_conversion_sizes(self, kwargs, ok):
        args = (gde_negative_integer(2), negative_integer_base(2))
        with pytest.raises(_Reached if ok else LimitExceededError):
            verify_conversion(*args, **kwargs)

    @pytest.mark.parametrize("n_pairs, max_len, ok", [
        (1, 1, True),
        (0, 8, False),
        (-4, 8, False),
        (10, 0, False),
        (MAX_BATCH_DIGITS // 8, 8, True),
        (MAX_BATCH_DIGITS // 8 + 1, 8, False),
        (1, MAX_BATCH_DIGITS + 1, False),
    ])
    def test_addition_sizes(self, n_pairs, max_len, ok):
        pl = build_pipeline(make_system(negative_integer_base(2),
                                        Alphabet(0, 2)))
        with pytest.raises(_Reached if ok else LimitExceededError):
            verify_addition(pl, n_pairs=n_pairs, max_len=max_len)
