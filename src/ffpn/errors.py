"""Shared exception types and the refusal of paths that cannot be written."""

import os


class FfpnError(Exception):
    pass


class NotPrime(FfpnError):
    pass


class UnfactoredCofactor(FfpnError):
    """A composite cofactor survived the factoring budget.

    Carries the offending cofactor so it can be supplied through a hint or
    the factor cache file.
    """

    def __init__(self, cofactor, message=None):
        self.cofactor = cofactor
        super().__init__(message or f"unfactored composite cofactor {cofactor}")


class FactorMismatch(FfpnError, ArithmeticError):
    """Factors whose product is not the integer they are said to factor.

    Raised, not asserted, so python -O keeps the check.
    """


class CorruptCache(FfpnError):
    """A factor cache file that is not a JSON object of factor lists."""


class SizeBudgetExceeded(FfpnError):
    pass


class ZeroElement(FfpnError):
    pass


class DivisibilityViolation(FfpnError):
    pass


def refuse_unwritable(path, prefix, error):
    """Raise error("<prefix> <path>...") unless a file can be written at path
    through path.tmp: not when either is a directory, or the folder is
    missing or read-only."""
    for p in (path, path + ".tmp"):
        if os.path.isdir(p):
            raise error(f"{prefix} {path}: {p} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise error(f"{prefix} {path} is in no existing directory")
    if not os.access(folder, os.W_OK | os.X_OK):
        raise error(f"{prefix} {path} is in a read-only directory")
