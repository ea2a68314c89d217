"""The benchmark's workloads and the checks on every output they produce.

Each workload is a fixed list of ``eisencount`` command lines run one after
another.  The seed picks, for each command, an offset k in 0..OFFSETS-1
that lowers its height bounds, prime counts and series limits by k.  That
changes the inputs (and so the exact answers) while changing the work by
well under 0.1% of a pass, so run-to-run spread stays a property of the
machine and not of the seed.  Every seeded input has its own answer in
``expected.json``, recorded from the seed commit by ``record_expected.py``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

OFFSETS = 8
SUBCOMMANDS = ("count", "density", "table", "verify", "error-term")
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _heights(k: int, *heights: int) -> str:
    return ",".join(str(h - k) for h in heights)


# Why each workload exists is recorded in NOTES.md.  No command uses
# --threads and nothing runs in parallel: the target machine has 2 cores.
WORKLOADS = {
    "exact-heavy": (
        lambda k: ["count", "-d", "3", "-H", str(10**6 - k), "--variant", "monic"],
        lambda k: ["count", "-d", "3", "-H", str(200_000 - k), "--variant", "general"],
        lambda k: ["error-term", "--variant", "general", "-d", "2",
                   "--heights", _heights(k, 1000, 10_000, 100_000), "--format", "json"],
    ),
    "density-heavy": (
        lambda k: ["density", "-d", "2", "--kind", "theta", "--method", "both",
                   "--prime-count", str(10_000 - k), "--series-limit", str(10**6 - k)],
        lambda k: ["density", "-d", "2", "--kind", "rho", "--method", "both",
                   "--prime-count", str(78_498 - k),
                   "--series-limit", str(2 * 10**6 - k)],
        lambda k: ["table", "--degrees", "2..10", "--prime-count", str(78_498 - k)],
    ),
    "small-verify": (
        lambda k: ["verify"],
        lambda k: ["count", "-d", "3", "-H", "20", "--variant", "general",
                   "--method", "both"],
        lambda k: ["--output-format", "csv", "table", "--degrees", "2..10",
                   "--prime-count", str(10_000 - k)],
        lambda k: ["error-term", "--variant", "monic", "-d", "3",
                   "--heights", _heights(k, 100, 1000), "--format", "csv"],
    ),
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's command lines for one seed; same seed, same lines."""
    rng = random.Random(f"{workload}/{seed}")
    return [make(rng.randrange(OFFSETS)) for make in WORKLOADS[workload]]


def every_command(workload: str) -> list[list[str]]:
    """Every command line any seed can produce for the workload."""
    seen = {}
    for make in WORKLOADS[workload]:
        for k in range(OFFSETS):
            argv = make(k)
            seen.setdefault(" ".join(argv), argv)
    return list(seen.values())


def subcommand(argv: list[str]) -> str:
    return next(arg for arg in argv if arg in SUBCOMMANDS)


def option(argv: list[str], *names: str) -> str:
    for i, arg in enumerate(argv):
        if arg in names:
            return argv[i + 1]
    raise KeyError(names)


def count_key(variant: str, degree, height) -> str:
    return f"{variant}/{degree}/{height}"


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


_DENSITY_LINE = re.compile(
    r"(theta|rho)\((\d+)\) = (\S+)  in \[(\S+), (\S+)\]  via (\S+) (\w+)=(\d+)")

# The CLI prints 12 significant digits; a printed endpoint near 0.25 is
# within 5e-13 of the bracket it stands for.
_PRINT_SLACK = 1e-12


def check(argv: list[str], exit_code: int, stdout: str,
          expected: dict) -> tuple[str | None, float | None]:
    """Check one command's result against the values recorded at the seed.

    Returns (reason it is wrong or None, widest printed density bracket or
    None).  Counts, verify and table output must be identical to the seed
    commit's.  A density bracket is right when it meets the enclosure
    recorded for its constant: tighter brackets than the seed's still pass.
    Error-term rows are checked on their exact counts only, because the
    main term and residual are approximations that may legitimately change.
    """
    if exit_code != 0:
        return f"exit code {exit_code}", None
    sub = subcommand(argv)
    if sub == "count":
        key = count_key(option(argv, "--variant"), option(argv, "-d"),
                        option(argv, "-H"))
        if stdout != expected["counts"][key] + "\n":
            return f"count {key} printed {stdout.strip()!r}", None
        return None, None
    if sub == "error-term":
        variant, degree = option(argv, "--variant"), option(argv, "-d")
        heights = option(argv, "--heights").split(",")
        want = [expected["counts"][count_key(variant, degree, h)] for h in heights]
        try:
            if option(argv, "--format") == "json":
                got = [row["exact"] for row in json.loads(stdout)]
            else:
                got = [row["exact"] for row in csv.DictReader(io.StringIO(stdout))]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable error-term output ({exc!r})", None
        if got != want:
            return f"error-term exact counts {got} != {want}", None
        return None, None
    if sub == "density":
        return _check_density(argv, stdout, expected)
    if stdout != expected["stdout"][" ".join(argv)]:
        return f"{sub} output differs from the seed commit", None
    return None, None


def _check_density(argv, stdout, expected):
    kind, degree = option(argv, "--kind"), option(argv, "-d")
    lo, hi = (float(Fraction(x)) for x in expected["enclosures"][f"{kind}/{degree}"])
    lines = stdout.splitlines()
    want_lines = 2 if option(argv, "--method") == "both" else 1
    if len(lines) != want_lines:
        return f"density printed {len(lines)} lines, expected {want_lines}", None
    widest = 0.0
    for line in lines:
        match = _DENSITY_LINE.fullmatch(line)
        if not match or match.group(1, 2) != (kind, degree):
            return f"unparsable density line {line!r}", None
        lower, upper = float(match.group(4)), float(match.group(5))
        if lower - _PRINT_SLACK > hi or upper + _PRINT_SLACK < lo:
            return f"bracket [{lower}, {upper}] misses {kind}({degree})", None
        widest = max(widest, upper - lower)
    return None, widest


def bracket_digits(widths: list[float]) -> float | None:
    """-log10 of the widest printed density bracket, if any was printed."""
    return -math.log10(max(widths)) if widths else None
