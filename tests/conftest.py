import os

import click
import pytest

from eisencount import cli
from eisencount.arith import build_sieve


@pytest.fixture(scope="session")
def sieve():
    """Mid-size sieve, enough for counting tests up to height 10^4."""
    return build_sieve(10**4)


@pytest.fixture(scope="session")
def big_sieve():
    """Million-entry sieve for series truncations and prime-count checks."""
    return build_sieve(10**6)


@pytest.fixture()
def parsed(monkeypatch):
    """Parse-only CLI: each subcommand records (config, options) and stops.

    Every EISEN_* variable of the calling environment is removed first, so
    a parse sees only the variables a test sets.
    """
    calls = []

    def record(**options):
        calls.append((click.get_current_context().obj, options))

    for command in cli.main.commands.values():
        monkeypatch.setattr(command, "callback", record)
    for name in list(os.environ):
        if name.startswith("EISEN_"):
            monkeypatch.delenv(name)
    return calls
