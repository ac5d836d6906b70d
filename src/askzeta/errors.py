"""Exception hierarchy shared across the package."""


class AskZetaError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AskZetaError):
    """Malformed or out-of-range input (bad dimensions, non-prime p, ...)."""


class BudgetExceededError(AskZetaError):
    """An exact enumeration would exceed the configured budget."""

    def __init__(self, needed, budget, advice="", view="", level=None):
        self.needed = needed
        self.budget = budget
        self.advice = advice
        self.view = view
        self.level = level
        msg = f"enumeration of {needed} points exceeds budget {budget}"
        if view:
            msg += f" in the {view} view at level n = {level}"
        if advice:
            msg += f" ({advice})"
        super().__init__(msg)


class NotExpandableError(AskZetaError):
    """Rational function has no Taylor expansion at T = 0."""


class NotLieAlgebraError(AskZetaError):
    """Basis is not closed under commutators over the rationals."""


class NonIntegralStructureConstantsError(AskZetaError):
    """Commutators lie in the rational span but not in the lattice."""


class InternalConsistencyError(AskZetaError):
    """Two independent computations of the same quantity disagree; always a bug."""
