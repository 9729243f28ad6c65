"""Error hierarchy.

Every error carries a stable machine-readable ``code`` for ``--json``
payloads, and the CLI's ``exit_code``, so neither needs string matching.
"""

from __future__ import annotations


class NumerationError(Exception):
    """Base class for all package errors."""

    code = "error"
    exit_code = 2

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_json(self) -> dict:
        return {"error": self.code, "message": self.message, **self.details}


# --- construction / validation -------------------------------------------

class ParameterRangeError(NumerationError):
    code = "kind-parameter-out-of-range"


class NonCoprimeError(NumerationError):
    code = "non-coprime-rational-parameters"


class AlphabetError(NumerationError):
    code = "invalid-alphabet"


class DigitStringSyntaxError(NumerationError):
    code = "syntax-error"

    def __init__(self, message: str, offset: int):
        super().__init__(message, offset=offset)
        self.offset = offset


class NumberSyntaxError(NumerationError):
    code = "invalid-number"


class UnsupportedBaseError(NumerationError):
    code = "unsupported-base"
    exit_code = 3


# --- expansions -----------------------------------------------------------

class NotInWindowError(NumerationError):
    code = "x-not-representable-in-window"
    exit_code = 3


class NegativeInputError(NumerationError):
    code = "negative-input-for-positive-base"
    exit_code = 3


# --- local rules ----------------------------------------------------------

class PatternNotMultipleError(NumerationError):
    code = "value-pattern-not-multiple-of-base"


class OutputEscapesAlphabetError(NumerationError):
    code = "output-digit-escapes-alphabet"


class ZeroNotFixedError(NumerationError):
    code = "zero-window-not-mapped-to-zero"


class DigitOutOfAlphabetError(NumerationError):
    code = "digit-out-of-alphabet"


class AlphabetMismatchError(NumerationError):
    code = "alphabet-mismatch"


class LetterNotFixedError(NumerationError):
    code = "letter-not-fixed"


# --- rule catalog / adder -------------------------------------------------

class UnsupportedAlphabetError(NumerationError):
    code = "alphabet-unsupported"
    exit_code = 4


class AlphabetTooSmallError(NumerationError):
    code = "alphabet-too-small"
    exit_code = 4


class AlphabetLacksNegativesError(NumerationError):
    code = "alphabet-lacks-negatives"
    exit_code = 4


# --- bounds / oracle ------------------------------------------------------

class NotApplicableError(NumerationError):
    code = "not-applicable"
    exit_code = 3


class RuleFileError(NumerationError):
    code = "invalid-rule-file"


# --- bench ----------------------------------------------------------------

# Operand lengths `bench.run_benchmark` accepts, here so that `bench --help`
# loads no benchmark; a 10**7-digit `paradd bench` took 880 MiB and 6-12 s.
MIN_LENGTH, MAX_LENGTH = 10 ** 3, 10 ** 7


class WorkerCountError(NumerationError):
    code = "invalid-worker-count"


class LimitExceededError(NumerationError):
    """A request above a documented size limit, refused before the work."""

    code = "limit-exceeded"


def within(name: str, value: int, lo: int, hi: int) -> None:
    """Refuse ``value`` outside [lo, hi] with ``LimitExceededError``."""
    if not lo <= value <= hi:
        raise LimitExceededError(
            f"{name} must lie in [{lo}, {hi}], got {value}",
            option=name, value=value, limit=[lo, hi])
