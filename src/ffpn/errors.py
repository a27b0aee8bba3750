"""Shared exception types."""


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
