"""Exception hierarchy shared across the package, and the budget check of a
count p^e."""

# Reports print integers of at most 4,300 decimal digits, the interpreter's
# default int-string limit; 2^14284 < 10^4300, so a bit length check suffices.
MAX_REPORT_BITS = 14284
# A count over its budget is built for the error only up to this many bits;
# a larger one is named by its formula, such as "3^100000000".
MAX_BUILT_BITS = 1 << 20


class AskZetaError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AskZetaError):
    """Malformed or out-of-range input (bad dimensions, non-prime p, ...)."""


class BudgetExceededError(AskZetaError):
    """An exact enumeration would exceed the configured budget.

    The message gives a `needed` past MAX_REPORT_BITS by its bit length, which
    the interpreter can print; `.needed` keeps the exact number, or the
    formula that names a count too large to build (see check_power).
    """

    def __init__(self, needed, budget, advice="", view="", level=None):
        self.needed = needed
        self.budget = budget
        self.advice = advice
        self.view = view
        self.level = level
        if isinstance(needed, int) and needed.bit_length() > MAX_REPORT_BITS:
            needed = f"a {needed.bit_length()}-bit number of"
        msg = f"enumeration of {needed} points exceeds budget {budget}"
        if view:
            msg += f" in the {view} view at level n = {level}"
        if advice:
            msg += f" ({advice})"
        super().__init__(msg)


def check_power(p: int, e: int, budget: int, advice="", view="", level=None) -> None:
    """Raise BudgetExceededError if p^e exceeds the budget, for a prime p.

    The exponent decides first: p^e >= 2^e > budget once e >= the budget's
    bit length, so p^e is built only below that or, for the message, while
    it has at most MAX_BUILT_BITS bits; a larger count is named "p^e"."""
    if e < budget.bit_length():
        needed = p**e
        if needed <= budget:
            return
    elif e * p.bit_length() <= MAX_BUILT_BITS:
        needed = p**e
    else:
        needed = f"{p}^{e}"
    raise BudgetExceededError(needed, budget, advice, view, level)


class NotExpandableError(AskZetaError):
    """Rational function has no Taylor expansion at T = 0."""


class NotLieAlgebraError(AskZetaError):
    """Basis is not closed under commutators over the rationals."""


class NonIntegralStructureConstantsError(AskZetaError):
    """Commutators lie in the rational span but not in the lattice."""


class InternalConsistencyError(AskZetaError):
    """Two independent computations of the same quantity disagree; always a bug."""
