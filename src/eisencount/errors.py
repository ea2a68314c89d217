"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """A requested computation exceeds a configured resource budget.

    Raised instead of silently truncating: callers asked for more work
    (enumeration size, sieve memory) than the budget allows and must
    either raise the budget explicitly or shrink the request.
    """


class InvariantError(ValueError):
    """A result container was built with values it can never hold.

    Signals a broken internal invariant (a count outside its possible
    range, a bracket missing its own value) rather than a bad argument.
    """
