"""Record the reference answers in expected.json.

    python3 perfbench/record_expected.py

Runs, through the CLI, every command line any seed can produce, and stores
the exact counts (including those inside error-term profiles), the verify
and table output, and for each density constant the intersection of its
product and series brackets.  The file is the benchmark's definition of a
correct answer: regenerate it only from the commit it was recorded at,
never from a commit under test.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction

import run
import workloads

# Wider truncations than any workload uses, so the enclosure is tight.
ENCLOSURE_PRIMES = 78_498
ENCLOSURE_SERIES = 2 * 10**6


def _cli(argv, env):
    code, out, err, _, _ = run.run_child(
        [sys.executable, "-m", "eisencount.cli", *argv], env)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err}")
    return out


def main() -> None:
    env = run.child_env()
    counts, stdout, constants = {}, {}, set()
    for workload in workloads.WORKLOADS:
        for argv in workloads.every_command(workload):
            sub = workloads.subcommand(argv)
            opt = functools.partial(workloads.option, argv)
            if sub == "count":
                wanted = [(opt("--variant"), opt("-d"), opt("-H"))]
            elif sub == "error-term":
                wanted = [(opt("--variant"), opt("-d"), h)
                          for h in opt("--heights").split(",")]
            elif sub == "density":
                constants.add((opt("--kind"), int(opt("-d"))))
                continue
            else:
                stdout[" ".join(argv)] = _cli(argv, env)
                continue
            for variant, d, h in wanted:
                key = workloads.count_key(variant, d, h)
                if key not in counts:
                    out = _cli(["count", "-d", d, "-H", h, "--variant", variant], env)
                    counts[key] = out.strip()

    sys.path.insert(0, str(run.SRC))
    from eisencount import build_sieve, density

    sieve = build_sieve(ENCLOSURE_SERIES)
    enclosures = {}
    for kind, d in sorted(constants):
        product = getattr(density, f"{kind}_product")(
            d, sieve, prime_count=ENCLOSURE_PRIMES)
        series = getattr(density, f"{kind}_series")(
            d, sieve, series_limit=ENCLOSURE_SERIES)
        lo, hi = max(product.lower, series.lower), min(product.upper, series.upper)
        if lo > hi:
            raise RuntimeError(f"{kind}({d}): product and series brackets are disjoint")
        enclosures[f"{kind}/{d}"] = [str(Fraction(lo)), str(Fraction(hi))]

    workloads.EXPECTED_PATH.write_text(json.dumps(
        {"counts": counts, "stdout": stdout, "enclosures": enclosures},
        indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
