"""Fixed-pass parallel adder."""

import random

import pytest

from paradd.algebra import values_equal
from paradd.adder import (
    PassFacts, add, build_pipeline, reduce_to_alphabet, subtract,
)
from paradd.cli import parse_alphabet, parse_base
from paradd.core import (
    Alphabet,
    DigitString,
    digitwise_sum,
    make_system,
    negative_integer_base,
    parse_digit_string,
    pisot_minus_base,
    rational_base,
)
from paradd.errors import AlphabetLacksNegativesError, DigitOutOfAlphabetError
from paradd.local import closure_range


def _system(base, m, M):
    return make_system(base, Alphabet(m, M))


# passes of each proved plan; max(M, -m) rounds gave -1000 {0..1000} a
# thousand, base 10 ten and -1+i four
_PROVED_PASSES = {
    "-1+i 0..4": 2, "-1+i -2..2": 2, "2i 0..4": 2, "2i -2..2": 2,
    "10 0..10": 2, "10 -5..5": 2, "-10 0..10": 2, "-3 0..3": 2,
    "-4 0..4": 2, "-100 0..100": 2, "-1000 0..1000": 2, "5/2 0..6": 2,
    "pisot+:3 0..4": 2, "pisot+:44 0..45": 2, "pisot+:100 0..101": 2,
    "root:7,3,+ 0..7": 2, "root:3,2,- 0..3": 2, "5/3 0..7": 4,
    "-5/3 0..7": 4, "7/4 0..10": 4, "-7/4 0..10": 4, "-2 0..2": 2,
    "-2 -1..1": 2, "-2 -2..0": 2, "2 0..2": 2, "3/2 0..4": 4,
    "-3/2 0..4": 4, "-3/2 -2..2": 4, "pisot-:3 0..2": 2,
    "pisot+:2 0..3": 3, "root:2,2,+ 0..2": 2, "isqrt2 0..2": 2,
    "11/10 0..20": 20, "101/100 0..200": 200,
}


class TestPlans:
    @pytest.mark.parametrize("name", _PROVED_PASSES)
    def test_plan_is_proved_closed(self, name):
        # closure_range chained from the input range ends inside A, and
        # not at the end of an earlier round: each round is one it needs
        base, alphabet = name.split()
        pl = build_pipeline(make_system(parse_base(base),
                                        parse_alphabet(alphabet)))
        assert len(pl.plan) == _PROVED_PASSES[name]
        A, (lo, hi) = pl.system.alphabet, pl.input_range
        per_round = len({kind for kind, _ in pl.plan})
        closed, chain = [], [(lo, hi)]
        for _, rule in pl.plan:
            lo, hi = closure_range(rule, lo, hi)
            closed.append(A.m <= lo and hi <= A.M)
            chain.append((lo, hi))
        assert closed[-1] and not any(closed[per_round - 1:-1:per_round])
        # the pipeline keeps the chain, and each pass reads its input range
        assert pl.ranges == tuple(chain)
        assert [(p.lo, p.hi) for p in pl.passes] == chain[:-1]

    def test_quadratic_unit_fast_path(self):
        pl = build_pipeline(_system(pisot_minus_base(3), 0, 2))
        assert len(pl.plan) == 2
        assert pl.effective_window == (5, 5)

    def test_generic_plan_window(self):
        pl = build_pipeline(_system(negative_integer_base(2), 0, 2))
        t, r = pl.effective_window
        assert t >= 0 and r > 0

    def test_serializable(self):
        pl = build_pipeline(_system(rational_base(3, 2), 0, 4))
        js = pl.to_json()
        assert js["passes"] and js["effective_window"]


class TestAddition:
    def test_cancellation(self):
        sys_ = _system(negative_integer_base(2), 0, 2)
        pl = build_pipeline(sys_)
        x = parse_digit_string("1 1 .")
        y = parse_digit_string("1 .")
        assert add(x, y, pl).is_zero  # -2+1 then +1

    def test_random_closure(self):
        rng = random.Random(42)
        for base, m, M in ((negative_integer_base(2), 0, 2),
                           (negative_integer_base(2), -1, 1),
                           (rational_base(3, 2), 0, 4),
                           (pisot_minus_base(3), 0, 2)):
            pl = build_pipeline(_system(base, m, M))
            for _ in range(200):
                L = rng.randint(1, 6)
                x = DigitString(tuple(rng.randint(m, M) for _ in range(L)), 0)
                y = DigitString(tuple(rng.randint(m, M) for _ in range(L)), 0)
                z = add(x, y, pl)
                assert all(m <= d <= M for d in z.digits)
                assert values_equal(z, digitwise_sum(x, y), base)

    def test_subtraction_needs_signed_alphabet(self):
        pl = build_pipeline(_system(negative_integer_base(2), 0, 2))
        x = parse_digit_string("1 .")
        with pytest.raises(AlphabetLacksNegativesError):
            subtract(x, x, pl)

    def test_subtraction_closure(self):
        base = negative_integer_base(2)
        pl = build_pipeline(_system(base, -1, 1))
        rng = random.Random(7)
        for _ in range(200):
            L = rng.randint(1, 6)
            x = DigitString(tuple(rng.randint(-1, 1) for _ in range(L)), 0)
            y = DigitString(tuple(rng.randint(-1, 1) for _ in range(L)), 0)
            z = subtract(x, y, pl)
            assert all(-1 <= d <= 1 for d in z.digits)
            want = digitwise_sum(x, DigitString(
                tuple(-d for d in y.digits), y.lsd_exponent))
            assert values_equal(z, want, base)

    def test_rejects_out_of_alphabet_digits(self):
        pl = build_pipeline(_system(negative_integer_base(2), 0, 2))
        with pytest.raises(DigitOutOfAlphabetError):
            add(parse_digit_string("5 ."), parse_digit_string("1 ."), pl)

    def test_trace_records_passes(self):
        sys_ = _system(negative_integer_base(2), 0, 2)
        pl = build_pipeline(sys_)
        trace = []
        add(parse_digit_string("2 2 ."), parse_digit_string("1 1 ."), pl,
            trace=trace)
        assert trace
        assert all({"kind", "string", "carries"} <= set(e) for e in trace)

    def test_traced_passes_run_once(self, monkeypatch):
        # a trace reads each pass's carries from its one run
        pl = build_pipeline(_system(rational_base(3, 2), 0, 4))
        runs = []
        run = PassFacts.run
        monkeypatch.setattr(PassFacts, "run",
                            lambda self, Z: runs.append(Z) or run(self, Z))
        x = parse_digit_string("4 3 4 .")
        for trace in (None, []):
            runs.clear()
            add(x, x, pl, trace)
            assert len(runs) == len(pl.plan) == 4


class TestReduce:
    def test_fixed_point_below_trigger(self):
        # digits already small enough never trip a carry
        sys_ = _system(rational_base(3, 2), 0, 4)
        pl = build_pipeline(sys_)
        ds = parse_digit_string("2 2 .")
        assert reduce_to_alphabet(ds, pl) == ds

    def test_value_preserved(self):
        sys_ = _system(negative_integer_base(2), 0, 2)
        pl = build_pipeline(sys_)
        ds = parse_digit_string("4 3 .")
        out = reduce_to_alphabet(ds, pl)
        assert values_equal(out, ds, sys_.base)
        assert all(0 <= d <= 2 for d in out.digits)
