"""Shared exception types and the argument checks every layer shares."""


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


def check_degree(d: int) -> None:
    """ValueError unless d >= 2, the smallest degree counted or estimated."""
    if d < 2:
        raise ValueError(f"degree must be at least 2, got {d}")


def check_degree_height(d: int, H: int) -> None:
    """:func:`check_degree`, then ValueError unless the height bound H >= 1."""
    check_degree(d)
    if H < 1:
        raise ValueError(f"height bound must be at least 1, got {H}")
