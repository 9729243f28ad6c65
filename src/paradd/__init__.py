"""Exact parallel addition in non-standard numeration systems."""

from .core import (
    Alphabet, BaseSpec, DigitString, NumerationSystem, digitwise_sum,
    format_digit_string, integer_base, make_base, make_system, minimal_form,
    negative_integer_base, negative_rational_base, negative_root_base,
    normalize, parse_digit_string, pisot_minus_base, pisot_plus_base,
    rational_base, root_base,
)
from .algebra import reduce_mod_base, values_equal
from .expansions import (
    euclid_expansion, greedy_expansion, symmetric_expansion, tm_expansion,
    value_bounds,
)
from .local import (
    CarryRule, LocalRule, apply_rule, compose_rules, derive_local_rule,
    fixed_letters, negate_rule, rule_from_json, shift_alphabet,
)
from .rules import canonical_gde, rules_for_alphabet
from .adder import AdderPipeline, add, build_pipeline, reduce_to_alphabet, subtract
from .bounds import minimal_alphabet_report

__version__ = "0.1.0"

# The oracle needs numpy; load it on first use so that other commands
# do not pay its import.
_ORACLE_NAMES = {"verify_addition", "verify_boundary", "verify_congruence",
                 "verify_conversion"}


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
