"""Both runners of the pass plan, the array kernel and the list runner,
against its definition, digit for digit."""

import itertools
import os
import random
import struct
from bisect import bisect_right
import sys
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paradd import bench, kernel
from paradd.adder import (
    MIN_ARRAY_DIGITS, PassFacts, add, build_pipeline, reduce_to_alphabet,
    subtract,
)
from paradd.algebra import values_equal
from paradd.cli import _VERIFY_CATALOG, parse_alphabet, parse_base
from paradd.core import (
    DigitString, digitwise_negate, digitwise_sum, make_system, normalize,
)
from paradd.errors import DigitOutOfAlphabetError
from paradd.local import (
    apply_rule, check_digits, closure_range, rule_from_json,
)
from paradd.oracle import verify_conversion
from paradd.rules import (
    gde_negative_integer, gde_pisot_minus, gde_rational_neg,
)

# every system `paradd verify` checks, plus two mixed-sign alphabets whose
# plans alternate top and bottom passes, and base 10
_SYSTEMS = [f"{b} {a}" for b, a in _VERIFY_CATALOG] + ["-2 -1..1",
                                                       "-3/2 -2..2",
                                                       "10 0..10"]


@lru_cache(maxsize=None)
def _pipeline(name):
    base, alphabet = name.split()
    return build_pipeline(make_system(parse_base(base),
                                      parse_alphabet(alphabet)))


def _lengths(pipe):
    halo = sum(pipe.effective_window)
    return st.one_of(st.sampled_from([0, 1, halo - 1, halo, halo + 1]),
                     st.integers(0, 3 * halo))


def _defined_passes(z, pipe):
    # the plan by its definition: apply_rule on z clamped into each rule's
    # alphabet, the clipped excess carried over unchanged; per pass, the
    # rule, the clamped string and the string the pass leaves
    lo, hi = pipe.input_range
    check_digits(z.digits, lo, hi, f"reducible range [{lo}, {hi}]")
    for _, rule in pipe.plan:
        a = rule.input_alphabet
        u = DigitString(tuple(min(max(d, a.m), a.M) for d in z.digits),
                        z.lsd_exponent)
        v = DigitString(tuple(d - c for d, c in zip(z.digits, u.digits)),
                        z.lsd_exponent)
        z = apply_rule(rule, u) if u == z else \
            digitwise_sum(apply_rule(rule, u), v)
        yield rule, u, z


def _carries(rule, ds):
    # q_j by its definition: the selector table at the class code of the
    # digits read around each place j, every one the selector can reach
    cr = rule.carry
    n, k, ta = len(cr.cuts) + 1, cr.stride, cr.selector_anticipation
    result = {}
    for j in range(ds.msd_exponent + k * cr.selector_memory,
                   ds.lsd_exponent - k * ta - 1, -1):
        code = 0
        for i in range(cr.selector_window):
            code = code * n + bisect_right(cr.cuts,
                                           ds.digit_at(j + k * (ta - i)))
        if rule.selector_table[code]:
            result[j] = rule.selector_table[code]
    return result


def _reduced(z, pipe):
    for _, _, z in _defined_passes(z, pipe):
        pass
    return normalize(z)


def _defined(x, y, pipe, negate=False):
    # x + y, or x - y, by the definition, refusing digits as add does
    al = pipe.system.alphabet
    for s in (x, y):
        check_digits(s.digits, al.m, al.M, f"alphabet {al}")
    z = _reduced(digitwise_sum(x, digitwise_negate(y) if negate else y), pipe)
    check_digits(z.digits, al.m, al.M, f"alphabet {al}")
    return z


# every `paradd verify` system, one that subtracts, and three whose
# alphabets are wide
_REFERENCE_SYSTEMS = [f"{b} {a}" for b, a in _VERIFY_CATALOG] + [
    "-2 -1..1", "pisot-:100 0..99", "pisot+:44 0..45", "-1000 0..1000"]


@pytest.mark.parametrize("name", _REFERENCE_SYSTEMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_list_runner_kernel_and_definition_agree(name, data):
    # short operands, now and then with a digit outside A: the list
    # runner, traced or not, and the kernel give the definition's digits,
    # or its error message and details
    pipe = _pipeline(name)
    al = pipe.system.alphabet
    bad = st.sampled_from([al.M + 1, al.m - 1, 2 * al.M + 1, 10 ** 30])

    def operand():
        n = data.draw(_lengths(pipe))
        digits = data.draw(st.lists(st.integers(al.m, al.M), min_size=n,
                                    max_size=n))
        if n and data.draw(st.integers(0, 3)) == 0:
            digits[data.draw(st.integers(0, n - 1))] = data.draw(bad)
        return DigitString(tuple(digits), data.draw(st.integers(-4, 4)))

    x, y = operand(), operand()
    assert max(len(x.digits), len(y.digits)) < MIN_ARRAY_DIGITS
    negate = al.m < 0 < al.M and data.draw(st.booleans())
    op = subtract if negate else add
    want = _outcome(_defined, x, y, pipe, negate)
    assert _outcome(op, x, y, pipe) == want
    assert _outcome(op, x, y, pipe, []) == want
    assert _outcome(kernel.add_strings, x, y, pipe, negate) == want


@pytest.mark.parametrize("name", _SYSTEMS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_trace_follows_the_definition(name, data):
    # each traced pass leaves the string the clamping definition leaves,
    # its support included, and the carries defined on the clamped string
    pipe = _pipeline(name)
    al = pipe.system.alphabet
    x, y = (DigitString(tuple(data.draw(st.lists(
                st.integers(al.m, al.M), max_size=12))),
                        data.draw(st.integers(-3, 3))) for _ in range(2))
    negate = al.m < 0 < al.M and data.draw(st.booleans())
    trace = []
    (subtract if negate else add)(x, y, pipe, trace)
    z = digitwise_sum(x, digitwise_negate(y) if negate else y)
    assert trace[0] == {"kind": "digitwise-difference" if negate
                        else "digitwise-sum", "string": z, "carries": {}}
    want = [{"kind": kind, "string": out, "carries": _carries(rule, u)}
            for (kind, _), (rule, u, out) in zip(pipe.plan,
                                                 _defined_passes(z, pipe))]
    assert trace[1:] == want


def test_traced_carries_on_a_clipped_pass():
    # 2 2 2 + 2 2 2 on -2 {0..2}: the first pass clamps 4 4 4 into
    # {0..3}, and its carries are those defined on 3 3 3
    pipe = _pipeline("-2 0..2")
    x = DigitString((2, 2, 2))
    trace = []
    add(x, x, pipe, trace)
    rule = pipe.plan[0][1]
    assert rule.input_alphabet.M == 3
    assert trace[1]["carries"] == _carries(rule, DigitString((3, 3, 3))) \
        == {3: -1, 2: 1, 1: 1, 0: 1}


@pytest.mark.parametrize("name", _SYSTEMS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_add_and_subtract_match_scalar(name, data):
    pipe = _pipeline(name)
    al = pipe.system.alphabet
    negate = al.m < 0 < al.M and data.draw(st.booleans())
    x, y = (DigitString(tuple(data.draw(st.lists(
                st.integers(al.m, al.M), min_size=n, max_size=n))),
                        data.draw(st.integers(-3, 3)))
            for n in (data.draw(_lengths(pipe)), data.draw(_lengths(pipe))))
    assert kernel.add_strings(x, y, pipe, negate) == \
        _defined(x, y, pipe, negate)


@pytest.mark.parametrize("name", _SYSTEMS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 5),
       length=st.integers(0, 24))
def test_batch_rows_match_scalar(name, seed, rows, length):
    pipe = _pipeline(name)
    lo, hi = pipe.input_range
    Z = np.random.default_rng(seed).integers(lo, hi + 1, (rows, length))
    out = kernel.run_plan(pipe, Z.T).T
    t = pipe.effective_window[0]
    for row, got in zip(Z, out):
        z = DigitString(tuple(row.tolist()))
        want = _reduced(z, pipe)
        assert normalize(DigitString(tuple(got.tolist()), -t)) == want
        assert reduce_to_alphabet(z, pipe) == want


@pytest.mark.parametrize("name", _SYSTEMS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_batch_columns_match_1d_runs(name, data):
    # a (positions, strings) batch, and every rule of its plan on one,
    # against the 1-D run of each string
    pipe = _pipeline(name)
    n = data.draw(_lengths(pipe))
    strings = data.draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = pipe.input_range
    Z = rng.integers(lo, hi + 1, (n, strings), dtype=np.int32)
    out = kernel.run_plan(pipe, Z, data.draw(st.sampled_from([1, 2])))
    assert out.shape == (n + sum(pipe.effective_window), strings)
    for k in range(strings):
        assert (out[:, k] == kernel.run_plan(pipe, Z[:, k])).all()
    for _, rule in pipe.plan:
        a = rule.input_alphabet
        D = rng.integers(a.m, a.M + 1, (n, strings), dtype=np.int32)
        out = _run_rule(rule, D)
        for k in range(strings):
            assert (out[:, k] == _run_rule(rule, D[:, k])).all()


def _run_rule(rule, Z):
    # the rule as a one-pass plan on digits of its input alphabet
    a = rule.input_alphabet
    plan = kernel.Plan([PassFacts(rule, a.m, a.M)])
    return plan.run(np.asarray(Z, dtype=plan.dtype))


def _plan(rules, lo, hi):
    # the rules as a plan on digits in [lo, hi], their ranges chained
    passes = []
    for rule in rules:
        passes.append(PassFacts(rule, lo, hi))
        lo, hi = closure_range(rule, lo, hi)
    return kernel.Plan(passes)


@lru_cache(maxsize=None)
def _table_form(rule):
    data = rule.to_json()
    del data["carry"]
    data["table"] = {
        " ".join(map(str, w)): rule.phi(w)
        for w in itertools.product(list(rule.input_alphabet),
                                   repeat=rule.window_length)}
    return rule_from_json(data)


# 5**7 = 78 125 windows for pisot-:4, so its table takes int32 codes
_TABLE_RULES = [gde_negative_integer(2), gde_rational_neg(3, 2),
                gde_pisot_minus(4)]


@pytest.mark.parametrize("rule", _TABLE_RULES, ids=lambda rule: rule.name)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 5),
       length=st.integers(0, 12))
def test_table_rule_matches_scalar(rule, seed, rows, length):
    table_rule = _table_form(rule)
    assert table_rule.carry.placements == ((0, 1),)
    a = rule.input_alphabet
    Z = np.random.default_rng(seed).integers(a.m, a.M + 1, (rows, length))
    out = _run_rule(table_rule, Z.T).T
    assert (out == _run_rule(rule, Z.T).T).all()
    for row, got in zip(Z, out):
        want = apply_rule(table_rule, DigitString(tuple(row.tolist())))
        assert normalize(DigitString(tuple(got.tolist()),
                                     -rule.anticipation)) == want


@pytest.mark.parametrize("rule", _TABLE_RULES, ids=lambda rule: rule.name)
def test_table_rule_is_proved_and_round_trips(rule):
    # read as q = Phi - centre at (0, 1), a table file is proved closed by
    # the same sweep as its carry rule, and exports in carry form
    table_rule = _table_form(rule)
    windows = list(itertools.product(rule.input_alphabet,
                                     repeat=rule.window_length))
    outs = [rule.phi(w) for w in windows]
    assert closure_range(table_rule) == closure_range(rule) == \
        (min(outs), max(outs))
    data = table_rule.to_json()
    assert "table" not in data
    again = rule_from_json(data)
    assert [again.phi(w) for w in windows] == outs


def _reach(rule):
    # the most one pass of the rule adds to a digit: sum |gamma| * max |q|
    return (sum(abs(g) for _, g in rule.carry.placements)
            * max(map(abs, rule.selector_table)))


def _static_bound(rules, lo, hi):
    # digits start in [lo, hi] and each pass adds its reach; the classes
    # 0 .. len(cuts) of each pass must fit as well
    classes = max(len(rule.carry.cuts) for rule in rules)
    return max(max(-lo, hi) + sum(map(_reach, rules)), classes)


@pytest.mark.parametrize("name", _SYSTEMS)
def test_dtype_holds_static_bound(name):
    pipe = _pipeline(name)
    rules = [rule for _, rule in pipe.plan]
    lo, hi = pipe.input_range
    bound = _static_bound(rules, lo, hi)
    dtype = kernel.run_plan(pipe, [hi]).dtype
    assert dtype == pipe.kernel_plan.dtype
    assert np.iinfo(dtype).max >= bound
    assert dtype == np.int8 or np.iinfo(np.int8).max < bound
    if name == "10 0..10":
        assert (bound, dtype) == (42, np.int8)
    # sound: no pass over extreme strings, run in int64, goes past it
    for Z in ([hi] * 40, [lo] * 40, [lo, hi] * 20, [hi, hi, lo] * 13):
        Z = np.array(Z, dtype=np.int64)
        for rule in rules:
            Z = kernel.Plan([PassFacts(rule, lo, hi)]).run(Z)
            assert np.abs(Z).max() <= bound
    # exact: digits up to 127 - reach take int8, one more takes int16
    edge = 127 - sum(map(_reach, rules))
    assert _static_bound(rules, 0, edge) == 127
    assert _plan(rules, 0, edge).dtype == np.int8
    assert _plan(rules, 0, edge + 1).dtype == np.int16


def test_proved_plan_sets_the_dtype():
    # -1000 {0..1000} needs 2 passes, each of reach 1 001, from [0, 2000]
    pipe = _pipeline("-1000 0..1000")
    rules = [rule for _, rule in pipe.plan]
    assert _static_bound(rules, *pipe.input_range) == 2000 + 2 * 1001
    assert pipe.kernel_plan.dtype == np.int16
    Z = np.array([2000, 0, 1999, 2000, 2000, 1] * 10)
    assert (kernel.run_plan(pipe, Z)
            == pipe.kernel_plan.run(Z.astype(np.int64))).all()


@pytest.mark.parametrize("m, dtype", [(-63, np.int8), (-64, np.int16)])
def test_codes_set_the_dtype_at_int8_edge(m, dtype):
    # a one-digit rule over {m..64} that lowers 64 by 1: its digits fit in
    # int8, and its codes 0 .. 64 - m only while they stay below 128
    rule = rule_from_json({
        "anticipation": 0, "memory": 0,
        "input_alphabet": {"m": m, "M": 64},
        "output_alphabet": {"m": m, "M": 64},
        "table": {str(d): d - (d == 64) for d in range(m, 65)}})
    plan = kernel.Plan([PassFacts(rule, m, 64)])
    assert plan.dtype == dtype
    out = plan.run(np.arange(m, 65, dtype=plan.dtype))
    assert out.tolist() == list(range(m, 64)) + [63]


def _kernel_adds(monkeypatch, name, length):
    # untraced add, and subtract on mixed signs, of length-digit operands,
    # each equal to the definition: (kernel.add_strings calls, ops run)
    pipe = _pipeline(name)
    al = pipe.system.alphabet
    rng = np.random.default_rng(2)
    x, y = (DigitString(tuple(rng.integers(al.m, al.M + 1,
                                           length).tolist()), e)
            for e in (0, -5))
    calls = []
    array_add = kernel.add_strings

    def spy(*args):
        calls.append(args)
        return array_add(*args)

    monkeypatch.setattr(kernel, "add_strings", spy)
    ops = [add] + ([subtract] if al.m < 0 else [])
    for op in ops:
        assert op(x, y, pipe) == _defined(x, y, pipe, op is subtract)
    return len(calls), len(ops)


@pytest.mark.parametrize("name", ["-2 -1..1", "-1+i 0..4"])
def test_long_operands_take_the_kernel(monkeypatch, name):
    calls, ops = _kernel_adds(monkeypatch, name, MIN_ARRAY_DIGITS)
    assert calls == ops


@pytest.mark.parametrize("length", [1, 16, MIN_ARRAY_DIGITS - 1])
@pytest.mark.parametrize("name", ["-2 -1..1", "-1+i 0..4"])
def test_short_operands_keep_the_scalar_loop_with_numpy_loaded(
        monkeypatch, name, length):
    # the path follows the operands' length alone, not the process state
    assert "numpy" in sys.modules
    calls, _ = _kernel_adds(monkeypatch, name, length)
    assert calls == 0


def _random_string(rng, alphabet, length, lsd):
    return DigitString(tuple(rng.randint(alphabet.m, alphabet.M)
                             for _ in range(length)), lsd)


# the ten `paradd verify` systems, and one that subtracts
@pytest.mark.parametrize("name", [f"{b} {a}" for b, a in _VERIFY_CATALOG]
                         + ["-2 -1..1"])
@settings(max_examples=15, deadline=None)
@given(lengths=st.tuples(*[st.one_of(st.integers(0, 16),
                                     st.integers(0, MIN_ARRAY_DIGITS - 1))]
                         * 2),
       lsds=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
       seed=st.integers(0, 2 ** 32 - 1), cancel=st.booleans())
def test_short_kernel_adds_match_the_traced_scalar_loop(name, lengths, lsds,
                                                        seed, cancel):
    pipe = _pipeline(name)
    al = pipe.system.alphabet
    rng = random.Random(seed)
    x = _random_string(rng, al, lengths[0], lsds[0])
    # cancel: y has x's value, its lsd moved down by trailing zeros
    pad = lsds[1] % 4
    y = (DigitString(x.digits + (0,) * pad, x.lsd_exponent - pad) if cancel
         else _random_string(rng, al, lengths[1], lsds[1]))
    ops = [add] + ([subtract] if al.m < 0 else [])
    for op in ops:
        want = _defined(x, y, pipe, op is subtract)
        assert op(x, y, pipe) == op(x, y, pipe, trace=[]) == want
        assert kernel.add_strings(x, y, pipe, op is subtract) == want
    if cancel and al.m < 0:
        assert kernel.add_strings(x, y, pipe, True) == DigitString.zero()


# top passes; the two-stage map plan; top and bottom passes, subtracting
_ERROR_PLANS = [("-2 0..2", add), ("pisot-:3 0..2", add),
                ("-2 -1..1", subtract)]


@pytest.mark.parametrize("bad", [7, -1, -2, 10 ** 30])
def test_long_operand_errors_match_scalar(bad):
    for name, op in _ERROR_PLANS:
        pipe = _pipeline(name)
        if bad in pipe.system.alphabet:
            continue
        x = DigitString((1,) * 500 + (bad,) + (1,) * MIN_ARRAY_DIGITS)
        y = DigitString((1,) * 10)
        for a, b in ((x, y), (y, x)):
            with pytest.raises(DigitOutOfAlphabetError) as kern:
                op(a, b, pipe)
            with pytest.raises(DigitOutOfAlphabetError) as scalar:
                _defined(a, b, pipe, op is subtract)
            assert str(kern.value) == str(scalar.value)
            assert kern.value.details == scalar.value.details == \
                {"digit": bad}


def _error(fn, *args, **trace):
    with pytest.raises(DigitOutOfAlphabetError) as err:
        fn(*args, **trace)
    return err.value


@pytest.mark.parametrize("bad", [7, -1, -2, 10 ** 30])
def test_short_kernel_errors_match_scalar(bad):
    for name, op in _ERROR_PLANS:
        pipe = _pipeline(name)
        al = pipe.system.alphabet
        if bad in al:
            continue
        other = next(d for d in (7, -2, 10 ** 30) if d not in al and d != bad)
        for n in range(3, 11):
            clean = DigitString((1,) * n, -1)
            # y's bad digit sits at the most significant place of the sum
            y = DigitString((other,) + (1,) * (n - 1), 2)
            for pos in (0, n // 2, n - 1):
                x = DigitString(tuple(bad if i == pos else 1
                                      for i in range(n)))
                for a, b, want in ((x, clean, bad), (clean, x, bad),
                                   (x, y, bad), (y, x, other)):
                    kern = _error(kernel.add_strings, a, b, pipe,
                                  op is subtract)
                    scalar = _error(_defined, a, b, pipe, op is subtract)
                    traced = _error(op, a, b, pipe, trace=[])
                    untraced = _error(op, a, b, pipe)
                    assert str(kern) == str(scalar) == str(traced) == \
                        str(untraced)
                    assert kern.details == scalar.details == \
                        traced.details == untraced.details == {"digit": want}


@pytest.mark.parametrize("bad", [2 ** 31, -2 ** 31 - 1, 10 ** 30])
def test_flat_list_beyond_int32_is_refused(bad):
    for name in ("-2 0..2", "pisot-:3 0..2"):
        pipe = _pipeline(name)
        digits = [1, 2] * 50 + [bad] + [9]
        with pytest.raises(DigitOutOfAlphabetError) as err:
            bench.run_pipeline_flat(pipe, digits)
        assert str(err.value) == \
            f"digit {bad} outside reducible range [0, 4]"
        assert err.value.details == {"digit": bad}


def test_plan_is_built_once_per_pipeline(monkeypatch):
    builds = []

    class Counting(kernel.Plan):
        def __init__(self, passes):
            builds.append(len(passes))
            super().__init__(passes)

    monkeypatch.setattr(kernel, "Plan", Counting)
    pipe = build_pipeline(make_system(parse_base("-2"),
                                      parse_alphabet("-1..1")))
    x, y = DigitString((1, 0, -1) * 6), DigitString((1, 1, -1) * 5, -2)
    Z = np.array([2, -2, 1, 0, -1] * 20, dtype=np.int32)
    for _ in range(3):
        assert kernel.add_strings(x, y, pipe, negate=True) == \
            subtract(x, y, pipe)
        assert (kernel.run_plan(pipe, Z, 2) == kernel.run_plan(pipe, Z)).all()
        kernel.plan_slice(pipe, Z, (10, 20))
    long_x = DigitString((1,) * MIN_ARRAY_DIGITS)
    add(long_x, long_x, pipe)
    assert builds == [len(pipe.plan)]
    # the kernel reads the records the list runner reads
    assert [facts for facts, _ in pipe.kernel_plan.passes] == \
        list(pipe.passes)
    # a sweep compiles its rule once, as a one-pass plan
    builds.clear()
    verify_conversion(pipe.plan[0][1], pipe.system.base, max_len=5)
    assert builds == [1]


def test_m1pi_flat_run_matches_scalar_quickly():
    # a fresh pipeline: the time includes tabulating the rules
    pipe = build_pipeline(make_system(parse_base("-1+i"),
                                      parse_alphabet("0..4")))
    lo, hi = pipe.input_range
    z = np.random.default_rng(1).integers(lo, hi + 1, 10 ** 5).tolist()
    t0 = time.perf_counter()
    got = bench.run_pipeline_flat(pipe, z, workers=1)
    elapsed = time.perf_counter() - t0
    want = _reduced(DigitString(tuple(z)), pipe)
    t = pipe.effective_window[0]
    assert normalize(DigitString(tuple(got), -t)) == want
    assert elapsed < 1.0, elapsed


# systems the kernel once refused by their tables over digit sub-windows,
# from 47**3 entries (pisot+:44) to 101**5 (pisot-:100); it compiles
# their class tables, of 9 to 1 024 entries, as they are
_WIDE = ["pisot-:100 0..99", "pisot+:44 0..45", "-1000 0..1000",
         "root:2,10,+ 0..2"]


@pytest.mark.parametrize("name", _WIDE)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_wide_alphabets_match_scalar(name, data):
    pipe = _pipeline(name)
    al, halo = pipe.system.alphabet, pipe.kernel_plan.halo
    x, y = (DigitString(tuple(data.draw(st.lists(st.integers(al.m, al.M),
                                                 max_size=12))),
                        data.draw(st.integers(-3, 3))) for _ in range(2))
    assert kernel.add_strings(x, y, pipe) == add(x, y, pipe) == \
        _defined(x, y, pipe)
    lo, hi = pipe.input_range
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    Z = rng.integers(lo, hi + 1, (data.draw(st.integers(1, 12)), 3))
    out = kernel.run_plan(pipe, Z)
    for k in range(3):
        want = _reduced(DigitString(tuple(Z[:, k].tolist())), pipe)
        assert normalize(DigitString(tuple(out[:, k].tolist()),
                                     -pipe.effective_window[0])) == want
        assert (kernel.run_plan(pipe, Z[:, k]) == out[:, k]).all()
    for cut in (halo - 1, halo, halo + 1):
        for a, b in ((0, cut), (cut, len(out))):
            assert (kernel.plan_slice(pipe, Z, (a, b)) == out[a:b]).all()


# plans the closure proof trims below max(M, -m) rounds
_TRIMMED = ["-1000 0..1000", "pisot+:44 0..45", "10 0..10", "10 -5..5",
            "-1+i 0..4", "2i -2..2", "5/3 0..7", "-7/4 0..10"]


@pytest.mark.parametrize("name", _TRIMMED)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_trimmed_plans_close_with_exact_value(name, data):
    pipe = _pipeline(name)
    al, base = pipe.system.alphabet, pipe.system.base
    x, y = (DigitString(tuple(data.draw(st.lists(st.integers(al.m, al.M),
                                                 max_size=12))),
                        data.draw(st.integers(-3, 3))) for _ in range(2))
    ops = [(False, add)] + ([(True, subtract)] if al.m < 0 < al.M else [])
    for negate, op in ops:
        want = digitwise_sum(x, digitwise_negate(y) if negate else y)
        for z in (op(x, y, pipe), kernel.add_strings(x, y, pipe, negate)):
            assert all(d in al for d in z.digits)
            assert values_equal(z, want, base)
    lo, hi = pipe.input_range
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    Z = rng.integers(lo, hi + 1, (data.draw(st.integers(1, 12)), 3))
    out = kernel.run_plan(pipe, Z)
    assert ((al.m <= out) & (out <= al.M)).all()
    for k in range(3):
        assert values_equal(DigitString(tuple(out[:, k].tolist()),
                                        -pipe.effective_window[0]),
                            DigitString(tuple(Z[:, k].tolist())), base)
    halo = pipe.kernel_plan.halo
    for cut in (halo - 1, halo, halo + 1):
        for a, b in ((0, cut), (cut, len(out))):
            assert (kernel.plan_slice(pipe, Z, (a, b)) == out[a:b]).all()


@pytest.mark.parametrize("name", ["pisot-:100 0..99", "pisot+:44 0..45"])
def test_wide_alphabets_add_long_operands_through_the_kernel(name):
    pipe = _pipeline(name)
    al = pipe.system.alphabet
    rng = np.random.default_rng(3)
    x, y = (DigitString(tuple(rng.integers(al.m, al.M + 1,
                                           MIN_ARRAY_DIGITS).tolist()))
            for _ in range(2))
    assert add(x, y, pipe) == kernel.add_strings(x, y, pipe) == \
        add(x, y, pipe, trace=[]) == _defined(x, y, pipe)


def _array_digits(Z, lo, hi, dtype, where):
    # the conversion without bytes: every sequence straight into dtype
    if not isinstance(Z, np.ndarray):
        try:
            Z = np.array(Z, dtype=dtype)
        except OverflowError:
            Z = np.array(Z, dtype=object)
    kernel._check(Z, lo, hi, where)
    return Z.astype(dtype, copy=False)


def _outcome(fn, *args):
    # the digits and their type, or the error's message and details
    try:
        out = fn(*args)
    except DigitOutOfAlphabetError as err:
        return str(err), err.details
    if isinstance(out, DigitString):
        return out, {type(d) for d in out.digits}
    if isinstance(out, (bytes, tuple, list)):
        return out, {type(d) for d in out}
    return out.tolist(), out.dtype


# M <= 127; an alphabet within a byte, its plan range (0, 400) in int16
# beyond it; M > 255; mixed signs in int8, and in signed bytes whose plan
# runs in int16
_BYTE_SYSTEMS = ["-2 0..2", "3/2 0..4", "-200 0..200", "-1000 0..1000",
                 "-2 -1..1", "-64 -32..32"]


def _digit_list(data, lo, hi, bads):
    # digits in [lo, hi], long or short, with a bad digit drawn at some
    # place, the last place included, or none
    n = data.draw(st.sampled_from([0, 1, 5, 40, MIN_ARRAY_DIGITS]))
    digits = data.draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))
    if n and data.draw(st.booleans()):
        at = data.draw(st.sampled_from([0, n - 1, n // 2]))
        digits[at] = data.draw(st.sampled_from(bads))
    return digits


@pytest.mark.parametrize("name", _BYTE_SYSTEMS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bytes_conversion_matches_the_array_path(name, data):
    pipe = _pipeline(name)
    al = pipe.system.alphabet
    # 255 wraps to -1 in int8, were it cast before the check; -129 and
    # 128 fit no signed byte, np.int8(-128) does
    bads = [al.M + 1, 255, 256, -1, True, np.int64(al.M),
            np.int64(al.M + 1), 10 ** 30, -129, 128, np.int8(-128),
            np.int64(-129)]
    kind = data.draw(st.sampled_from([list, tuple, np.array]))
    negate = al.m < 0 and data.draw(st.booleans())
    x, y = (DigitString((list if kind is list else tuple)(
                _digit_list(data, al.m, al.M, bads)),
                        data.draw(st.integers(-2, 2))) for _ in range(2))
    z = kind(_digit_list(data, *pipe.input_range, bads))
    workers = data.draw(st.sampled_from([1, 2]))
    calls = [(kernel.add_strings, x, y, pipe, negate),
             (kernel.run_plan, pipe, z, workers),
             (bench.run_pipeline_flat, pipe, z, workers)]
    got = [_outcome(*call) for call in calls]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_digits", _array_digits)
        want = [_outcome(*call) for call in calls]
    assert got == want


def test_signed_bytes_never_convert_element_by_element(monkeypatch):
    # -2 {-1..1}: operands, sums and outputs all fit a signed byte
    pipe = _pipeline("-2 -1..1")
    pipe.kernel_plan  # its tables convert once, before the spy
    rng = np.random.default_rng(5)
    x, y = (DigitString(tuple(rng.integers(-1, 2, MIN_ARRAY_DIGITS).tolist()))
            for _ in range(2))
    z = rng.integers(-2, 3, 2 * bench.MIN_SHARD_DIGITS).tolist()
    calls, array = [], np.array

    def spy(*args, **kwargs):
        calls.append(args)
        return array(*args, **kwargs)

    monkeypatch.setattr(kernel.np, "array", spy)
    diff = kernel.add_strings(x, y, pipe, True)
    flat = [bench.run_pipeline_flat(pipe, z, workers) for workers in (1, 2)]
    run = kernel.run_plan(pipe, tuple(z))
    assert calls == []
    monkeypatch.undo()
    assert diff == _defined(x, y, pipe, True)
    assert type(flat[0]) is tuple
    assert flat[0] == flat[1] == tuple(run.tolist()) == tuple(
        bench.run_pipeline_flat(pipe, array(z, np.int8)).tolist())
    assert {type(d) for d in flat[0] + diff.digits} == {int}


# whether the outputs come back through bytes: proven in 0..255, -200's
# in int16 too; mixed signs, and -1000's beyond 255, are not
_THROUGH_BYTES = {"-2 0..2": True, "-200 0..200": True, "-2 -1..1": False,
                  "-1000 0..1000": False}


@pytest.mark.parametrize("name", list(_THROUGH_BYTES))
@pytest.mark.parametrize("workers", [1, 2])
def test_flat_list_matches_flat_array(name, workers):
    pipe = _pipeline(name)
    lo, hi = pipe.ranges[-1]
    assert (0 <= lo and hi <= 255) == _THROUGH_BYTES[name]
    kind = bytes if _THROUGH_BYTES[name] else \
        tuple if -128 <= lo and hi <= 127 else list
    lo, hi = pipe.input_range
    z = np.random.default_rng(4).integers(lo, hi + 1,
                                          2 * bench.MIN_SHARD_DIGITS)
    got = bench.run_pipeline_flat(pipe, z.tolist(), workers)
    assert type(got) is kind and {type(d) for d in got} == {int}
    assert list(got) == bench.run_pipeline_flat(pipe, z, workers).tolist()


@pytest.mark.parametrize("name", list(_THROUGH_BYTES))
def test_every_sequence_gets_the_same_flat_answer(name):
    # a list, a tuple and a range of the same digits; an array gets an array
    pipe = _pipeline(name)
    lo, hi = pipe.input_range
    digits = range(lo, hi + 1)
    got = [bench.run_pipeline_flat(pipe, z)
           for z in (list(digits), tuple(digits), digits)]
    array = bench.run_pipeline_flat(pipe, np.array(digits))
    assert type(array) is np.ndarray
    assert got[0] == got[1] == got[2] and type(got[0]) is type(got[2])
    assert list(got[0]) == array.tolist()


def test_digits_cross_the_kernel_in_one_copy_each_way():
    pipe = _pipeline("-2 0..2")
    plan = pipe.kernel_plan
    assert plan.dtype == np.int8 and plan.hi <= 127
    z = np.random.default_rng(6).integers(plan.lo, plan.hi + 1, 1000).tolist()
    Z = kernel._digits(z, plan.lo, plan.hi, plan.dtype, plan.where)
    assert Z.dtype == np.int8 and Z.tolist() == z
    base = Z.base  # a view of the bytes that bytearray made, not a copy
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(getattr(base, "obj", base), bytearray)
    out = kernel.run_plan(pipe, Z)[3:]  # an offset, as add_strings reads
    assert out.dtype == np.int8
    assert kernel.to_ints(out, *pipe.ranges[-1]) == bytes(
        out.astype(np.uint8))
    signed = _pipeline("-2 -1..1")
    lo, hi = signed.input_range
    out = kernel.run_plan(signed, np.random.default_rng(6).integers(
        lo, hi + 1, 1000).astype(np.int8))[3:]
    assert out.dtype == np.int8
    assert kernel.to_ints(out, *signed.ranges[-1]) == struct.unpack(
        f"{out.size}b", out.tobytes())


class _NoPool:
    def submit(self, *args, **kwargs):
        raise AssertionError("work was submitted to the thread pool")


def _counted_run(pipe, Z, workers, block):
    # run_plan with BLOCK_DIGITS = block, one worker kept off the pool;
    # the output and the cuts of every slice it ran
    cuts, plan_slice = [], kernel.plan_slice

    def spy(pipeline, Z, cut):
        cuts.append(cut)
        return plan_slice(pipeline, Z, cut)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "BLOCK_DIGITS", block)
        patch.setattr(kernel, "plan_slice", spy)
        if workers == 1:
            patch.setattr(kernel, "_POOL", _NoPool())
        return kernel.run_plan(pipe, Z, workers), sorted(cuts)


@pytest.mark.parametrize("name", _SYSTEMS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_blocks_match_one_whole_run(name, data):
    # lengths at and beside the block edges, and below the halo, with
    # blocks shorter and longer than the halo; 1-D strings and 2-D batches
    pipe = _pipeline(name)
    plan, (lo, hi) = pipe.kernel_plan, pipe.input_range
    block = data.draw(st.integers(1, 2 * plan.halo + 3))
    workers = data.draw(st.sampled_from([1, 2]))
    edges = [max(0, k * workers * block - plan.halo + d)
             for k in (1, 2, 3) for d in (-1, 0, 1)]
    n = data.draw(st.one_of(st.integers(0, plan.halo),
                            st.sampled_from(edges),
                            st.integers(0, 7 * workers * block)))
    shape = (n,) + data.draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    Z = rng.integers(lo, hi + 1, shape)
    # digits outside the range at up to two places, in two slices or one:
    # the error names the first, as one check of the whole array does
    for at in data.draw(st.lists(st.integers(0, max(0, n - 1)),
                                 max_size=2 if n else 0)):
        Z[at] = data.draw(st.sampled_from([lo - 1, hi + 1]))
    try:
        kernel._check(Z, lo, hi, plan.where)
    except DigitOutOfAlphabetError as err:
        with pytest.raises(DigitOutOfAlphabetError) as got:
            _counted_run(pipe, Z, workers, block)
        assert str(got.value) == str(err)
        assert got.value.details == err.details
        return
    got, cuts = _counted_run(pipe, Z, workers, block)
    want = plan.run(Z.astype(plan.dtype))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all()
    width = n + plan.halo
    assert len(cuts) % workers == 0
    assert len(cuts) == workers * -(-width // (workers * block))
    # the slices tile the output, none longer than a block
    assert [a for a, _ in cuts] == [0] + [b for _, b in cuts[:-1]]
    assert cuts[-1][1] == width
    assert max(b - a for a, b in cuts) <= block


def test_one_worker_runs_three_blocks_off_the_pool():
    pipe = _pipeline("-2 0..2")
    plan = pipe.kernel_plan
    Z = np.random.default_rng(5).integers(0, 5, 3 * 64 - plan.halo)
    got, cuts = _counted_run(pipe, Z, 1, 64)
    assert cuts == [(0, 64), (64, 128), (128, 192)]
    assert (got == plan.run(Z.astype(plan.dtype))).all()


def test_few_positions_stay_one_slice():
    # a 2-D batch such as the oracle's: one slice on one thread
    pipe = _pipeline("3/2 0..4")
    Z = np.random.default_rng(6).integers(0, 9, (12, 4096))
    got, cuts = _counted_run(pipe, Z, 1, kernel.BLOCK_DIGITS)
    assert cuts == [(0, 12 + pipe.kernel_plan.halo)]
    assert (got == pipe.kernel_plan.run(
        Z.astype(pipe.kernel_plan.dtype))).all()


def test_threads_share_the_slices_under_fast_switching():
    # more workers than CPUs pull 8-digit slices from one iterator with a
    # short switch interval: each slice runs once, and the output is whole
    pipe = _pipeline("3/2 0..4")
    plan = pipe.kernel_plan
    workers = 2 * len(os.sched_getaffinity(0)) + 1
    Z = np.random.default_rng(8).integers(0, 9, 5000).astype(plan.dtype)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, cuts = _counted_run(pipe, Z, workers, 8)
    finally:
        sys.setswitchinterval(interval)
    assert cuts == kernel.shard_cuts(len(Z) + plan.halo, len(cuts))
    assert (got == plan.run(Z)).all()


# --- window tables: groups of passes read as one table ---------------------

def _step_shapes(plan):
    # each step of a plan: a table's shape, or "pass" for a class pass
    return [s.args[1].shape if s.func is kernel._read_table else "pass"
            for s in plan.steps]


@pytest.mark.parametrize("name", _SYSTEMS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tables_match_class_passes(name, data):
    # the fused plan's steps and the class passes, directly and through
    # run_plan with small blocks (the gate then opens): 1-D strings across
    # slice edges and 2-D batches, lengths 0-3, all zeros, all maxima
    pipe = _pipeline(name)
    plan, (lo, hi) = pipe.kernel_plan, pipe.input_range
    n = data.draw(st.one_of(st.integers(0, 3),
                            st.integers(0, 5 * plan.halo + 20)))
    shape = (n,) + data.draw(st.sampled_from([(), (1,), (4,)]))
    fill = data.draw(st.sampled_from(["random", 0, hi]))
    if fill == "random":
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        Z = np.random.default_rng(seed).integers(lo, hi + 1, shape)
    else:
        Z = np.full(shape, fill)
    Z = Z.astype(plan.dtype)
    want = plan.run(Z)
    got = plan.fused.run(Z)
    assert got.dtype == want.dtype and (got == want).all()
    block = data.draw(st.integers(1, max(1, n)))
    got, _ = _counted_run(pipe, Z, data.draw(st.sampled_from([1, 2])), block)
    assert (got == want).all()


@pytest.mark.parametrize("name", _SYSTEMS)
@pytest.mark.parametrize("above", [False, True])
def test_tables_refuse_a_bad_digit_as_class_passes(name, above):
    pipe = _pipeline(name)
    plan, (lo, hi) = pipe.kernel_plan, pipe.input_range
    Z = np.random.default_rng(9).integers(lo, hi + 1, 40)
    for bad in (lo - 1, hi + 1):
        Z[17] = bad
        with pytest.raises(DigitOutOfAlphabetError) as got:
            _counted_run(pipe, Z, 1, 8 if above else len(Z) + 1)
        assert str(got.value) == \
            f"digit {bad} outside reducible range [{lo}, {hi}]"
        assert got.value.details == {"digit": bad}


# (table shape, or "pass") of each fused step; a change of
# kernel.TABLE_ENTRIES shows here
_STEP_SHAPES = {
    "-2 0..2": [(5,) * 5],
    "3/2 0..4": [(9,) * 3, (7,) * 3],
    "-1+i 0..4": ["pass", "pass"],
    "-1000 0..1000": ["pass", "pass"],
}


@pytest.mark.parametrize("name", list(_STEP_SHAPES))
def test_fused_step_shapes(name):
    assert _step_shapes(_pipeline(name).kernel_plan.fused) == \
        _STEP_SHAPES[name]


@pytest.mark.parametrize("name", _SYSTEMS + ["pisot-:100 0..99"])
def test_tables_lie_in_the_proven_ranges(name):
    # each table holds digits of the range proven out of its group's last
    # pass, and a table that ends the plan digits of A alone: the closure
    # chain, cross-checked by tabulation
    pipe = _pipeline(name)
    passes, al, i = pipe.passes, pipe.system.alphabet, 0
    for step in pipe.kernel_plan.fused.steps:
        if step.func is not kernel._read_table:
            i += 1
            continue
        lo, table = step.args
        assert (lo, table.shape[0]) == (passes[i].lo,
                                        passes[i].hi - passes[i].lo + 1)
        assert table.size <= kernel.TABLE_ENTRIES
        window = 0
        while window < table.ndim - 1:
            window += passes[i].t + passes[i].r
            i += 1
        assert window == table.ndim - 1
        lo, hi = pipe.ranges[i]
        assert lo <= table.min() and table.max() <= hi
        if i == len(passes):
            assert al.m <= table.min() and table.max() <= al.M
    assert i == len(passes)


def _fresh(name):
    base, alphabet = name.split()
    return build_pipeline(make_system(parse_base(base),
                                      parse_alphabet(alphabet)))


def test_tables_build_only_for_long_runs(monkeypatch):
    # the table builder never runs below BLOCK_DIGITS digits, for the
    # oracle or for build_pipeline; a long run builds each table once, on
    # the calling thread, and reads it
    import threading
    from paradd.oracle import verify_addition
    builds, reads = [], []
    window_table, read_table = kernel._window_table, kernel._read_table

    def build(group, dtype):
        builds.append(threading.current_thread())
        return window_table(group, dtype)

    def read(*args):
        reads.append(1)
        return read_table(*args)

    monkeypatch.setattr(kernel, "_window_table", build)
    monkeypatch.setattr(kernel, "_read_table", read)
    pipe = _fresh("3/2 0..4")
    Z = np.random.default_rng(3).integers(0, 9, kernel.BLOCK_DIGITS - 1)
    kernel.run_plan(pipe, Z)
    x = DigitString(tuple(np.random.default_rng(4).integers(0, 5, 20_000)
                          .tolist()))
    assert add(x, x, pipe) == reduce_to_alphabet(digitwise_sum(x, x), pipe)
    assert verify_addition(pipe, n_pairs=500).passed
    assert verify_conversion(pipe.plan[0][1], pipe.system.base,
                             max_len=4).passed
    for name in _SYSTEMS:
        _fresh(name)
    assert builds == [] and reads == []
    Z = np.append(Z, 0)
    want = pipe.kernel_plan.run(Z.astype(pipe.kernel_plan.dtype))
    for workers in (2, 1):
        assert (kernel.run_plan(pipe, Z, workers) == want).all()
    assert builds == [threading.main_thread()] * 2
    # two slices in each run, two tables read in each slice
    assert len(reads) == 2 * 2 * 2
