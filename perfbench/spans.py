"""Per-layer tracing from outside the program.

The traced run executes a workload's command lines in this process and
wraps the public functions of ``arith``, ``counting``, ``density``,
``oracle`` and ``report`` in spans.  The program binds imported names
(``from .arith import phi_bounded``), so each wrapper is patched, by object
identity, into every loaded ``eisencount.*`` namespace that holds the
original.  Functions called once per modulus are counted but not spanned.

Work counts (moduli, primes, polynomials, bytes) are computed from call
arguments and results, not measured.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("arith", "counting", "density", "oracle", "report")

# About 1e6 calls per exact-heavy pass: a span each would dominate the run.
COUNT_ONLY = ("arith.phi_bounded", "counting.count_monic_s",
              "counting.count_general_s")

GROUPS = {
    "cli": ("cli",),
    "counting": ("counting.count_monic_eisenstein",
                 "counting.count_general_eisenstein"),
    "arith.phi_bounded": ("arith.phi_bounded",),
    "arith.build_sieve": ("arith.build_sieve",),
    "arith.mobius_table": ("arith.mobius_table",),
    "arith.totient_table": ("arith.totient_table",),
    "density.series": ("density.theta_series", "density.rho_series"),
    "density.product": ("density.theta_product", "density.rho_product"),
    "oracle": ("oracle.brute_count_monic", "oracle.brute_count_general"),
    "report.density_table": ("report.density_table",),
    "report.error_term_profile": ("report.error_term_profile",),
    "report.emit": ("report.emit_csv", "report.emit_json"),
}

# The groups each workload must call; a zero there means the trace (or the
# workload) no longer reaches the layer, and the traced run fails.
EXPECTED_GROUPS = {
    "exact-heavy": ("cli", "counting", "arith.phi_bounded", "arith.build_sieve",
                    "density.product", "report.error_term_profile",
                    "report.emit"),
    "density-heavy": ("cli", "arith.build_sieve", "arith.mobius_table",
                      "arith.totient_table", "density.series",
                      "density.product", "report.density_table"),
    "small-verify": ("cli", "counting", "oracle", "report.density_table",
                     "report.error_term_profile", "report.emit"),
}


def _digits(width) -> float:
    """-log10 of an exact positive Fraction width."""
    return math.log10(width.denominator) - math.log10(width.numerator)


def _product_work(args, result):
    name, value = result.truncation
    primes = value if name == "prime_count" else int(
        args["sieve"].primes.searchsorted(value, side="right"))
    return {"density.product.primes": primes,
            "density.product.digits": _digits(result.width)}


def _series_work(args, result):
    return {"density.series.moduli": args["series_limit"] - 1,
            "density.series.digits": _digits(result.width)}


def _oracle_work(extra_degree):
    def work(args, result):
        return {"oracle.polys": (2 * args["H"] + 1) ** (args["d"] + extra_degree),
                "oracle.hits": result.value}
    return work


def _table_work(args, result):
    return {"arith.table.bytes": result.nbytes}


def _moduli_work(args, result):
    return {"counting.moduli": args["H"] - 1}


def _emit_work(args, result):
    return {"report.emit.bytes": len(result.encode())}


# Per spanned function: work computed from (bound arguments, result).
WORK = {
    "arith.build_sieve": lambda a, r: {
        "arith.build_sieve.bytes": r.spf.nbytes + r.primes.nbytes},
    "arith.mobius_table": _table_work,
    "arith.totient_table": _table_work,
    "counting.count_monic_eisenstein": _moduli_work,
    "counting.count_general_eisenstein": _moduli_work,
    "density.theta_product": _product_work,
    "density.rho_product": _product_work,
    "density.theta_series": _series_work,
    "density.rho_series": _series_work,
    "oracle.brute_count_monic": _oracle_work(0),
    "oracle.brute_count_general": _oracle_work(1),
    "report.emit_csv": _emit_work,
    "report.emit_json": _emit_work,
}


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self.calls = Counter()
        self.work = Counter()
        self._patched = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name, fn):
        signature = inspect.signature(fn)
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.work.update(work(bound.arguments, result))
            return result
        return wrapper

    def install(self):
        """Patch a wrapper over every public layer function, everywhere."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "eisencount" or n.startswith("eisencount.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"eisencount.{layer}"]
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrap = self._counted if name in COUNT_ONLY else self._spanned
                wrappers[id(fn)] = wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    self._patched.append((module, attr, value))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - children)
        for name, calls in self.calls.items():
            out[name] = (calls, 0.0, 0.0)
        return out


def layer_metrics(tracer: Tracer, workload: str) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    Raises RuntimeError when a group the workload is known to call recorded
    no calls.
    """
    totals = tracer.totals()

    def group(key):
        calls = total = own = 0
        for name in GROUPS[key]:
            c, t, s = totals.get(name, (0, 0.0, 0.0))
            calls, total, own = calls + c, total + t, own + s
        return calls, total, own

    missing = [key for key in EXPECTED_GROUPS[workload] if group(key)[0] == 0]
    if missing:
        raise RuntimeError(f"{workload}: traced run recorded no calls to "
                           f"{', '.join(missing)}")
    work = tracer.work
    moduli = work["counting.moduli"]
    squarefree = (tracer.calls["counting.count_monic_s"]
                  + tracer.calls["counting.count_general_s"])
    series_s, product_s, oracle_s = (group(k)[1] for k in
                                     ("density.series", "density.product", "oracle"))
    polys = work["oracle.polys"]
    return {
        "counting.self_s": group("counting")[2],
        "counting.moduli": moduli,
        "counting.squarefree_ratio": squarefree / moduli if moduli else 0.0,
        "arith.phi_bounded.calls": group("arith.phi_bounded")[0],
        "arith.mobius_table.s": group("arith.mobius_table")[1],
        "arith.totient_table.s": group("arith.totient_table")[1],
        "arith.table.bytes": work["arith.table.bytes"],
        "arith.build_sieve.s": group("arith.build_sieve")[1],
        "arith.build_sieve.bytes": work["arith.build_sieve.bytes"],
        "density.series.s": series_s,
        "density.series.moduli": work["density.series.moduli"],
        "density.series.digits_per_ms": (work["density.series.digits"]
                                         / (1000 * series_s) if series_s else 0.0),
        "density.product.s": product_s,
        "density.product.primes": work["density.product.primes"],
        "density.product.digits_per_ms": (work["density.product.digits"]
                                          / (1000 * product_s) if product_s else 0.0),
        "oracle.s": oracle_s,
        "oracle.polys": polys,
        "oracle.polys_per_s": polys / oracle_s if oracle_s else 0.0,
        "oracle.hit_ratio": work["oracle.hits"] / polys if polys else 0.0,
        "report.density_table.self_s": group("report.density_table")[2],
        "report.error_term_profile.self_s": group("report.error_term_profile")[2],
        "report.emit.s": group("report.emit")[1],
        "report.emit.bytes": work["report.emit.bytes"],
        "cli.self_s": group("cli")[2],
    }


def self_time_by_layer(tracer: Tracer) -> Counter:
    """Self seconds summed per layer (the module part of each span name)."""
    shares = Counter()
    for name, (_, _, own) in tracer.totals().items():
        shares[name.split(".")[0]] += own
    return shares
