"""Shared exception types, and the state files: sweep checkpoints and the factor cache.

Every state file is one JSON object.  refuse_unwritable checks its path
before any work, read_state reads it (None for a missing file) and refuses
any file that is not a JSON object, and write_state replaces it atomically
through PATH.tmp.  Each caller passes its own error type and name for the
file and checks its own keys.
"""

import json
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


def read_state(path, prefix, error):
    """The JSON object in the file at path, or None if no file is there.

    Any other file raises error("<prefix> <path> <reason>"), the reason
    being that it is not UTF-8, not JSON or not a JSON object, and is left
    as it is.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    except UnicodeDecodeError:
        raise error(f"{prefix} {path} is not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise error(f"{prefix} {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{prefix} {path} is not a JSON object")
    return data


def write_state(path, data, indent=None):
    """Write data as sorted-key JSON to path.tmp, then replace path with it."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=indent)
    os.replace(tmp, path)
