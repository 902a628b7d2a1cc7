"""Exception types shared across the package."""


class ToricError(Exception):
    """Base class for all errors raised by this package."""


class InternalError(ToricError):
    """A consistency check inside the library failed.

    Never expected on any input; the CLI reports it with exit code 3, apart
    from invalid input (exit code 2).
    """


class ZeroVector(ToricError):
    pass


class NotSquare(ToricError):
    pass


class NotUnimodular(ToricError):
    pass


class NotStronglyConvex(ToricError):
    pass


class DimensionMismatch(ToricError):
    pass


class BadParams(ToricError):
    pass


class InvalidFan(ToricError):
    """Raised when fan data fails validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid fan")


class InfiniteRoots(ToricError):
    pass


class NoWitness(InternalError):
    """An equivalence witness was not found where theory guarantees one.

    This signals an internal inconsistency and is never expected on valid
    input; it is raised loudly instead of being swallowed.
    """


class NotComplete(ToricError):
    pass


class RaysDoNotSpan(ToricError):
    pass


class TorsionClassGroup(ToricError):
    pass


class DegeneratePolytope(ToricError):
    pass


class InvalidPolytope(ToricError):
    pass
