"""Exception types, and the integer checks on caller input, shared across the package.

Each class maps to one CLI exit code so failures stay distinguishable
from the shell: InfeasibleError -> 1, InputFormatError -> 2,
SizeGuardError -> 3, SynthesisExhaustedError -> 4.
"""

from __future__ import annotations


class InputFormatError(ValueError):
    """Malformed or inconsistent input data (files, parameters)."""


class SizeGuardError(RuntimeError):
    """Instance exceeds a hard size guard; refuse rather than degrade."""


class InfeasibleError(RuntimeError):
    """The requested object provably does not exist for this instance."""


class SynthesisExhaustedError(RuntimeError):
    """Coefficient search gave up after the retry budget."""


def is_int(value) -> bool:
    """True iff `value` is an int and not a bool; a plain int returns at once."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def check_tau(tau, least: int = 1) -> None:
    """Refuse a key count that is not an integer or is below `least`."""
    if not is_int(tau):
        raise InputFormatError("tau must be an integer")
    if tau < least:
        raise InputFormatError("tau must be positive" if least else "tau must be nonnegative")
