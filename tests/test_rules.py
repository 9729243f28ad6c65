"""Rule catalog: locality parameters and alphabet adaptation."""

from math import gcd

import pytest

from paradd.bounds import minimal_alphabet_size
from paradd.cli import parse_base
from paradd.core import (
    Alphabet,
    negative_integer_base,
    negative_rational_base,
    negative_root_base,
    pisot_minus_base,
    pisot_plus_base,
    rational_base,
    root_base,
)
from paradd.errors import (
    AlphabetTooSmallError, UnsupportedAlphabetError, UnsupportedBaseError,
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


class TestLocality:
    def test_negative_integer(self):
        for b in (2, 3, 10):
            g = gde_negative_integer(b)
            assert (g.anticipation, g.memory) == (0, 2)
            assert g.input_alphabet == Alphabet(0, b + 1)
            assert g.output_alphabet == Alphabet(0, b)

    def test_root(self):
        for b, k, neg in ((2, 2, True), (4, 2, True), (4, 4, True),
                          (2, 1, False)):
            g = gde_root(b, k, neg)
            assert (g.anticipation, g.memory) == (0, 2 * k)

    def test_quadratic_units(self):
        assert (doubling_reducer(3).anticipation,
                doubling_reducer(3).memory) == (2, 2)
        assert (gde_pisot_minus(3).anticipation,
                gde_pisot_minus(3).memory) == (3, 3)
        assert (gde_pisot_plus(2).anticipation,
                gde_pisot_plus(2).memory) == (2, 2)

    def test_rational(self):
        g = gde_rational_pos(3, 2)
        assert (g.anticipation, g.memory) == (0, 1)
        g = gde_rational_neg(3, 2)
        assert (g.anticipation, g.memory) == (0, 2)


class TestCanonical:
    def test_dispatch(self):
        assert canonical_gde(negative_integer_base(2)).output_alphabet.M == 2
        assert canonical_gde(rational_base(3, 2)).output_alphabet.M == 4
        assert canonical_gde(pisot_plus_base(2)).output_alphabet.M == 3
        assert canonical_gde(negative_root_base(4, 4)).output_alphabet.M == 4

    def test_output_alphabet_is_minimal_on_a_grid(self):
        # integers, root bases b**(1/k) of either sign (perfect powers such
        # as 4**(1/4) = sqrt 2 included), quadratic Pisot units and
        # rationals: the canonical rule's output alphabet has the minimal
        # size `paradd bounds` gives
        texts = ([f"{s}{n}" for n in range(2, 13) for s in ("", "-")]
                 + [f"root:{b},{k},{s}" for b in range(2, 17)
                    for k in range(1, 5) for s in "+-"]
                 + [f"pisot-:{a}" for a in range(3, 9)]
                 + [f"pisot+:{a}" for a in range(2, 9)]
                 + [f"{s}{a}/{b}" for a in range(2, 9) for b in range(1, a)
                    if gcd(a, b) == 1 for s in ("", "-")])
        checked = {}
        for text in texts:
            try:
                base = parse_base(text)
            except UnsupportedBaseError:  # a reducible X**k + b
                continue
            checked[text] = (canonical_gde(base).output_alphabet.size,
                             minimal_alphabet_size(base))
        assert len(checked) == 196
        assert {t for t, (size, least) in checked.items() if size != least} \
            == set()
        assert checked["root:4,4,+"] == checked["root:2,2,+"] == (3, 3)
        assert checked["root:16,4,+"] == checked["2"] == (3, 3)


class TestAlphabetAdaptation:
    def test_all_shifts_negative_integer(self):
        b = negative_integer_base(2)
        for alpha in (Alphabet(0, 2), Alphabet(-1, 1), Alphabet(-2, 0)):
            pair = rules_for_alphabet(b, alpha)
            assert pair.gde is not None or pair.sde is not None
            if pair.gde is not None:
                assert pair.gde.output_alphabet == alpha
            if pair.sde is not None:
                assert pair.sde.output_alphabet == alpha

    def test_pure_negative_alphabet_has_no_top_rule(self):
        pair = rules_for_alphabet(negative_integer_base(2), Alphabet(-2, 0))
        assert pair.gde is None and pair.sde is not None

    def test_too_small_refused(self):
        with pytest.raises(AlphabetTooSmallError):
            rules_for_alphabet(negative_integer_base(2), Alphabet(0, 1))

    def test_three_halves_shift_parity(self):
        b = rational_base(3, 2)
        for d in (0, 2, 4):
            pair = rules_for_alphabet(b, Alphabet(-d, 4 - d))
            assert (pair.gde is not None) or (pair.sde is not None)
        for d in (1, 3):
            with pytest.raises(UnsupportedAlphabetError):
                rules_for_alphabet(b, Alphabet(-d, 4 - d))

    def test_negative_rational_all_shifts(self):
        b = negative_rational_base(3, 2)
        for d in range(5):
            rules_for_alphabet(b, Alphabet(-d, 4 - d))
