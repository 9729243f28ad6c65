"""Exact parallel addition in non-standard numeration systems.

``import paradd`` loads no submodule: each public name loads the module
that defines it on first use (PEP 562), and only the oracle's load numpy.
"""

__version__ = "0.1.0"

_HOME = {name: module for module, names in {
    "core": "Alphabet BaseSpec DigitString NumerationSystem digitwise_sum "
            "format_digit_string integer_base make_base make_system "
            "minimal_form negative_integer_base negative_rational_base "
            "negative_root_base normalize parse_digit_string "
            "pisot_minus_base pisot_plus_base rational_base root_base",
    "algebra": "reduce_mod_base values_equal",
    "expansions": "euclid_expansion greedy_expansion symmetric_expansion "
                  "tm_expansion value_bounds",
    "local": "CarryRule LocalRule apply_rule compose_rules derive_local_rule "
             "fixed_letters negate_rule rule_from_json shift_alphabet",
    "rules": "canonical_gde rules_for_alphabet",
    "adder": "AdderPipeline add build_pipeline reduce_to_alphabet subtract",
    "bounds": "minimal_alphabet_report",
    "oracle": "verify_addition verify_boundary verify_congruence "
              "verify_conversion",
}.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
