"""Windowed conversion engine: derivation, application, conjugation."""

import itertools
import math
import random
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from paradd import local
from paradd.algebra import values_equal
from paradd.cli import _VERIFY_CATALOG, parse_alphabet, parse_base
from paradd.core import (
    Alphabet,
    DigitString,
    digitwise_negate,
    format_digit_string,
    negative_integer_base,
    normalize,
    parse_digit_string,
    pisot_minus_base,
)
from paradd.errors import (
    AlphabetMismatchError,
    DigitOutOfAlphabetError,
    LetterNotFixedError,
    LimitExceededError,
    OutputEscapesAlphabetError,
    PatternNotMultipleError,
)
from paradd.local import (
    CarryRule,
    Composition,
    LocalRule,
    PassFacts,
    apply_rule,
    closure_range,
    compose_rules,
    derive_local_rule,
    fixed_letters,
    negate_rule,
    rule_from_json,
    shift_alphabet,
)
from paradd.rules import (
    canonical_gde,
    doubling_reducer,
    gde_negative_integer,
    gde_pisot_minus,
    gde_pisot_plus,
    gde_rational_neg,
    gde_rational_pos,
    gde_root,
    rules_for_alphabet,
)
from test_acceptance import _SWEEP
from test_kernel import _TABLE_RULES, _carries, _table_form


class TestDerivation:
    def test_pattern_must_be_value_preserving(self):
        # reinjecting q at weight 1 only (pattern = X^0) changes the value
        bad = CarryRule(selector=lambda sub: 1 if sub[0] > 1 else 0,
                        selector_anticipation=0, selector_memory=0,
                        placements=((0, 1),), cuts=(2,), name="bad")
        with pytest.raises(PatternNotMultipleError):
            derive_local_rule(bad, negative_integer_base(2),
                              Alphabet(0, 3), Alphabet(0, 2))

    def test_derived_parameters(self):
        g = gde_negative_integer(2)
        assert (g.anticipation, g.memory) == (0, 2)
        assert g.window_length == 3
        d = doubling_reducer(3)
        assert (d.anticipation, d.memory) == (2, 2)

    def test_zero_window_fixed(self):
        g = gde_negative_integer(3)
        assert g.phi((0,) * g.window_length) == 0

    def test_escaping_rule_refused_with_its_window(self):
        # gde(-2) reaches digit 2, outside {0, 1}
        carry = gde_negative_integer(2).carry
        with pytest.raises(OutputEscapesAlphabetError) as info:
            derive_local_rule(carry, negative_integer_base(2),
                              Alphabet(0, 3), Alphabet(0, 1))
        details = info.value.details
        t, _ = carry.window()
        assert _selector_phi(carry, t)(tuple(details["window"])) \
            == details["output"]
        assert details["output"] not in Alphabet(0, 1)

    def test_quartic_rule_closure_is_exact(self):
        # -1+i: the rule for -4 at stride 4 has 4 classes over the 2 digits
        # it reads, so its 6**9 windows are proved from 4**2 entries
        rule = gde_root.__wrapped__(4, 4, True)
        assert len(rule.selector_table) == 4 ** 2
        assert closure_range(rule) == (0, 4)

    def test_oversized_selector_is_proved(self):
        # by digits, pisot-:100 spans 101**5 sub-windows, root:2,10,+
        # 4**11 and -1000 1002**2: each is proved from its class table
        for rule, entries in ((gde_pisot_minus(100), 4 ** 5),
                              (gde_root(2, 10, False), 3 ** 2),
                              (gde_negative_integer(1000), 4 ** 2)):
            assert rule.selector_table_size > local.DEFAULT_TABLE_BUDGET
            assert len(rule.selector_table) == entries
            lo, hi = closure_range(rule)
            assert rule.output_alphabet.m <= lo <= hi <= rule.output_alphabet.M
        # q = 1 at the centre and both neighbours: 100 - 100 + 1 + 1
        assert gde_pisot_minus(100).phi((0, 0, 99, 100, 99, 0, 0)) == 2

    def test_derivation_cpu_time(self):
        # the three largest catalog derivations: 7**7, 11**5 and 6**9
        # windows, proved from 7**5, 11**3 and 6**5 selector entries;
        # __wrapped__ derives afresh and leaves the shared caches alone
        start = time.process_time()
        gde_pisot_minus.__wrapped__(6)
        doubling_reducer.__wrapped__(6)
        gde_root.__wrapped__(4, 4, True)
        assert time.process_time() - start < 0.1


def _selector_phi(carry, t):
    """Phi on windows with anticipation t, calling the selector: the
    centre digit plus gamma * q of each placed sub-window's every
    stride-th digit."""
    span, k = carry.selector_span, carry.stride
    return lambda w: w[t] + sum(gamma * carry.selector(w[i0:i0 + span:k])
                                for i0, gamma in carry.reads(t))


def _brute_range(rule):
    """min and max of Phi over every window."""
    outs = list(map(rule.phi, itertools.product(rule.input_alphabet,
                                                repeat=rule.window_length)))
    return min(outs), max(outs)


def _catalog_rules(max_windows=10 ** 6):
    """The acceptance sweep's rules and the verify catalog's rules, with
    their shifted and negated forms on the catalog alphabets, each with at
    most ``max_windows`` windows."""
    out = [rule for rule, _, _ in _SWEEP]
    for base_text, alpha_text in _VERIFY_CATALOG:
        base = parse_base(base_text)
        pair = rules_for_alphabet(base, parse_alphabet(alpha_text))
        out += [canonical_gde(base), pair.gde, pair.sde]
    for base_text, alpha_text in (("-2", "-1..1"), ("-2", "-2..0"),
                                  ("3/2", "-2..2")):
        pair = rules_for_alphabet(parse_base(base_text),
                                  parse_alphabet(alpha_text))
        out += [pair.gde, pair.sde]
    return [rule for rule in out if rule is not None and
            rule.input_alphabet.size ** rule.window_length <= max_windows]


def _class_code(cuts, digits):
    """The code of a window of classes: the cuts at or below each digit,
    read in base len(cuts) + 1."""
    code = 0
    for d in digits:
        code = code * (len(cuts) + 1) + sum(c <= d for c in cuts)
    return code


class TestClosureRange:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_brute_force(self, data):
        m = data.draw(st.integers(-3, 0))
        alphabet = Alphabet(m, data.draw(st.integers(max(m + 1, 0), m + 3)))
        cuts = tuple(sorted(data.draw(st.sets(
            st.integers(m + 1, alphabet.M)))))
        k = data.draw(st.integers(1, 3))
        ta, tm = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
        width = ta + tm + 1
        q = tuple(data.draw(st.lists(st.integers(-3, 3),
                                     min_size=(len(cuts) + 1) ** width,
                                     max_size=(len(cuts) + 1) ** width)))
        # windows of at most 7 digits keep the brute force small
        reach = min(2, (6 // k - ta - tm) // 2)
        placements = tuple(data.draw(st.lists(
            st.tuples(st.integers(-reach, reach), st.integers(-3, 3)),
            min_size=1, max_size=3)))
        carry = CarryRule(None, ta, tm, placements, cuts, stride=k)
        t, r = carry.window()
        rule = LocalRule(alphabet, alphabet, t, r, carry, q, "drawn")
        span = carry.selector_span
        # input digits in [lo, hi], up to 2 past each end of the alphabet
        # while the windows number at most 4**7
        ext = max(e for e in range(3)
                  if (alphabet.size + 2 * e) ** (t + r + 1) <= 4 ** 7)
        lo = m - data.draw(st.integers(0, ext))
        hi = alphabet.M + data.draw(st.integers(0, ext))
        outs, inside = [], []
        for w in itertools.product(range(lo, hi + 1), repeat=t + r + 1):
            # a digit past either end takes that end's class
            want = w[t] + sum(gamma * q[_class_code(cuts, w[i0:i0 + span:k])]
                              for i0, gamma in carry.reads(t))
            outs.append(want)
            if all(d in alphabet for d in w):
                assert rule.phi(w) == want
                inside.append(want)
        assert closure_range(rule) == (min(inside), max(inside))
        assert closure_range(rule, lo, hi) == (min(outs), max(outs))

    def test_catalog_rules_equal_brute_force(self):
        checked = _catalog_rules()
        assert len(checked) >= 40
        for rule in checked:
            assert closure_range(rule) == _brute_range(rule), rule.name
            assert closure_range(rule)[1] <= rule.output_alphabet.M
            assert closure_range(rule)[0] >= rule.output_alphabet.m


_CLASS_RULES = (
    [gde_negative_integer(b) for b in range(2, 9)]
    + [gde_root(b, 1, False) for b in range(2, 9)]
    + [doubling_reducer(a) for a in range(3, 9)]
    + [gde_pisot_minus(a) for a in range(3, 9)]
    + [gde_pisot_plus(a) for a in range(2, 9)]
    + [make(a, b) for make in (gde_rational_pos, gde_rational_neg)
       for a, b in ((3, 2), (5, 2), (5, 3), (7, 4))])


@pytest.mark.parametrize("rule", _CLASS_RULES, ids=lambda rule: rule.name)
def test_selector_is_constant_on_classes(rule):
    # the selector on every digit sub-window equals its class-table entry
    carry = rule.carry
    for sub in itertools.product(rule.input_alphabet,
                                 repeat=carry.selector_window):
        assert carry.selector(sub) == \
            rule.selector_table[_class_code(carry.cuts, sub)], sub


@pytest.mark.parametrize("b, k, negative", [
    (2, 2, True), (4, 2, True), (2, 3, True), (2, 2, False), (3, 3, False)])
def test_root_rule_is_the_integer_rule_at_stride_k(b, k, negative):
    rule = gde_root(b, k, negative)
    inner = gde_negative_integer(b) if negative else gde_root(b, 1, False)
    assert (rule.anticipation, rule.memory) == (0, 2 * k)
    for w in itertools.product(rule.input_alphabet, repeat=2 * k + 1):
        assert rule.phi(w) == inner.phi(w[::k])


class TestApplication:
    def test_worked_conversion(self):
        g = gde_negative_integer(2)
        out = apply_rule(g, parse_digit_string("3 ."))
        assert format_digit_string(out) == "1 1 1 ."

    def test_preserves_value_everywhere(self):
        g = gde_negative_integer(2)
        b = negative_integer_base(2)
        for tup in itertools.product(range(4), repeat=4):
            ds = DigitString(tup, 0)
            assert values_equal(apply_rule(g, ds), ds, b)

    def test_input_alphabet_enforced(self):
        g = gde_negative_integer(2)
        with pytest.raises(DigitOutOfAlphabetError):
            apply_rule(g, DigitString((7,), 0))
        # the most significant digit outside is the one named
        with pytest.raises(DigitOutOfAlphabetError) as err:
            apply_rule(g, DigitString((1, -1, 2, 9, 0), 0))
        assert err.value.details == {"digit": -1}

    def test_respects_position(self):
        g = gde_negative_integer(2)
        lo = apply_rule(g, DigitString((3,), -4))
        hi = apply_rule(g, DigitString((3,), 0))
        assert lo == hi.shifted(-4)

    def test_carry_trace_positions(self):
        g = gde_negative_integer(2)
        a = g.input_alphabet
        step = PassFacts(g, a.m, a.M)
        qs = step.carries(step.run([3])[1], 0)
        assert qs and all(q in (-1, 1) for q in qs.values())
        assert qs == _carries(g, parse_digit_string("3 ."))


@lru_cache(maxsize=None)
def _window_rules():
    """The catalog rules, and the table-form copies of the kernel tests."""
    return _catalog_rules() + [_table_form(rule) for rule in _TABLE_RULES]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pass_carries_match_their_definition(data):
    # the carries `convert --trace` reports, read from the list runner,
    # against the selector table read at each place on its own
    rule = data.draw(st.sampled_from(_window_rules()))
    a = rule.input_alphabet
    ds = DigitString(tuple(data.draw(st.lists(st.integers(a.m, a.M),
                                              max_size=12))),
                     data.draw(st.integers(-3, 3)))
    step = PassFacts(rule, a.m, a.M)
    assert step.carries(step.run(list(ds.digits))[1], ds.msd_exponent) == \
        _carries(rule, ds)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_output_shifts_with_the_radix_point_and_reads_only_its_window(data):
    # output j is Phi of inputs j+t .. j-r: moving the radix point by delta
    # moves the output by delta, and a digit changed at exponent e changes
    # outputs e-t .. e+r at most
    rule = data.draw(st.sampled_from(_window_rules()))
    letters = list(rule.input_alphabet)
    t, r = rule.anticipation, rule.memory
    digits = data.draw(st.lists(st.sampled_from(letters), min_size=1,
                                max_size=t + r + 8))
    delta = data.draw(st.integers(-5, 5))
    out = apply_rule(rule, DigitString(tuple(digits), 0))
    assert apply_rule(rule, DigitString(tuple(digits), delta)) == \
        normalize(out.shifted(delta))
    pos = data.draw(st.integers(0, len(digits) - 1))  # index from msd
    mutated = list(digits)
    mutated[pos] = data.draw(st.sampled_from(
        [d for d in letters if d != digits[pos]]))
    changed = apply_rule(rule, DigitString(tuple(mutated), 0))
    e = len(digits) - 1 - pos
    for j in range(-t, len(digits) + r):
        if not e - t <= j <= e + r:
            assert out.digit_at(j) == changed.digit_at(j), (rule.name, j)


class TestConjugation:
    def test_fixed_letters(self):
        assert fixed_letters(gde_negative_integer(2)) == {0, 1, 2}

    def test_shift_requires_fixed_letter(self):
        g = gde_rational_pos(3, 2)
        with pytest.raises(LetterNotFixedError):
            shift_alphabet(g, 3)

    def test_shift_window_identity(self):
        g = gde_negative_integer(2)
        for h in fixed_letters(g) - {0}:
            sh = shift_alphabet(g, h)
            for w in itertools.product(list(sh.input_alphabet),
                                       repeat=g.window_length):
                assert sh.phi(w) == g.phi(tuple(x + h for x in w)) - h

    def test_background_must_be_fixed(self):
        g = gde_rational_pos(3, 2)
        with pytest.raises(LetterNotFixedError):
            apply_rule(g, DigitString((1,), 0), background=3)

    def test_negation_mirror(self):
        g = gde_negative_integer(2)
        ng = negate_rule(g)
        assert ng.input_alphabet == g.input_alphabet.negated()
        for w in itertools.product(list(g.input_alphabet),
                                   repeat=g.window_length):
            assert ng.phi(tuple(-x for x in w)) == -g.phi(w)

    def test_negation_coherent_on_strings(self):
        g = gde_negative_integer(2)
        ng = negate_rule(g)
        for tup in itertools.product(range(4), repeat=4):
            ds = DigitString(tup, 0)
            lhs = normalize(digitwise_negate(apply_rule(g, ds)))
            rhs = normalize(apply_rule(ng, digitwise_negate(ds)))
            assert lhs == rhs


class TestComposition:
    def test_parameters_add(self):
        a, g = doubling_reducer(3), gde_pisot_minus(3)
        comp = compose_rules(g, a)
        assert (comp.anticipation, comp.memory) == (5, 5)
        assert isinstance(comp, Composition)
        assert not isinstance(comp, LocalRule)

    def test_composed_equals_sequential(self):
        a, g = doubling_reducer(3), gde_pisot_minus(3)
        comp = compose_rules(g, a)
        for tup in itertools.product(range(5), repeat=3):
            ds = DigitString(tup, 0)
            assert apply_rule(comp, ds) == apply_rule(g, apply_rule(a, ds))

    def test_three_deep(self):
        # pisot-:3's direct plan, then its eliminator once more, nested on
        # either side: the same Phi, the windows summed, the same strings
        a, g = doubling_reducer(3), gde_pisot_minus(3)
        left = compose_rules(g, compose_rules(g, a))
        right = compose_rules(compose_rules(g, g), a)
        for comp in (left, right):
            assert (comp.anticipation, comp.memory) == (8, 8)
            assert (comp.input_alphabet, comp.output_alphabet) == \
                (a.input_alphabet, g.output_alphabet)
            assert comp.name == "doubling reducer (a=3) then gde(pisot- a=3)" \
                " then gde(pisot- a=3)"
        assert fixed_letters(left) == fixed_letters(right)
        for tup in itertools.product(range(5), repeat=3):
            ds = DigitString(tup, 0)
            want = apply_rule(g, apply_rule(g, apply_rule(a, ds)))
            assert apply_rule(left, ds) == apply_rule(right, ds) == want
        windows = random.Random(3).choices(range(5), k=17 * 40)
        for i in range(0, len(windows), 17):
            w = tuple(windows[i:i + 17])
            assert left.phi(w) == right.phi(w)

    def test_mismatched_alphabets_are_refused(self):
        # 3/2's eliminator outputs {0..4}; -2's reads {0..3}
        p = gde_rational_pos(3, 2)
        with pytest.raises(AlphabetMismatchError, match="0..4"):
            compose_rules(gde_negative_integer(2), compose_rules(p, p))


class TestSerialization:
    def test_every_catalog_rule_round_trips(self):
        # every catalog rule, shifted, negated and at stride 4 (-1+i)
        # included, exports at stride 1 and reads back with the same Phi:
        # the same reads, and the same carry on every sub-window of the
        # digits they span, so the same output on every window, which is
        # also checked one by one up to 2 * 10**4 windows.  Two reads of one
        # file compare equal.
        rules = _catalog_rules(max_windows=math.inf)
        assert any(rule.carry.stride == 4 for rule in rules)
        for rule in rules:
            data = rule.to_json()
            again = rule_from_json(data)
            assert again == rule_from_json(data) != rule, rule.name
            assert hash(again) == hash(rule_from_json(data))
            f, g = rule.facts, again.facts
            span = rule.carry.selector_span
            assert (g.t, g.r, g.placements, again.carry.selector_span) == \
                (f.t, f.r, f.placements, span), rule.name
            alphabet = rule.input_alphabet
            for sub in itertools.product(alphabet, repeat=span):
                assert g.carry_of(sub[::g.stride]) == \
                    f.carry_of(sub[::f.stride]), (rule.name, sub)
            if alphabet.size ** rule.window_length <= 2 * 10 ** 4:
                for w in itertools.product(alphabet,
                                           repeat=rule.window_length):
                    assert again.phi(w) == rule.phi(w), (rule.name, w)

    def test_round_trip_preserves_behavior(self):
        g = gde_negative_integer(2)
        g2 = rule_from_json(g.to_json())
        assert (g2.anticipation, g2.memory) == (0, 2)
        for w in itertools.product(range(4), repeat=3):
            assert g2.phi(w) == g.phi(w)

    def test_export_above_the_table_budget_is_refused(self):
        # pisot-:100 would enumerate 1.05 * 10**10 selector entries
        rule = gde_pisot_minus(100)
        start = time.perf_counter()
        with pytest.raises(LimitExceededError) as err:
            rule.to_json()
        assert time.perf_counter() - start < 1
        assert err.value.details["entries"] == rule.selector_table_size
        assert rule.selector_table_size > local.DEFAULT_TABLE_BUDGET
