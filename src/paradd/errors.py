"""Error hierarchy.

Every error carries a stable machine-readable ``code`` so the CLI can map
failures onto exit codes and ``--json`` payloads without string matching.
"""

from __future__ import annotations


class NumerationError(Exception):
    """Base class for all package errors."""

    code = "error"

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


# --- expansions -----------------------------------------------------------

class PrecisionExhaustedError(NumerationError):
    code = "precision-exhausted"


class NotInWindowError(NumerationError):
    code = "x-not-representable-in-window"


class NegativeInputError(NumerationError):
    code = "negative-input-for-positive-base"


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


class AlphabetTooSmallError(NumerationError):
    code = "alphabet-too-small"


class AlphabetLacksNegativesError(NumerationError):
    code = "alphabet-lacks-negatives"


# --- bounds / oracle ------------------------------------------------------

class NotApplicableError(NumerationError):
    code = "not-applicable"


class BudgetExceededError(NumerationError):
    code = "budget-exceeded"


# --- bench ----------------------------------------------------------------

class WorkerCountError(NumerationError):
    code = "invalid-worker-count"
