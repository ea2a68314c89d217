"""Exact counting and rigorous density evaluation for Eisenstein polynomials.

Two independent routes to every headline number: fast exact counts by
Moebius inclusion-exclusion cross-checked against brute-force enumeration,
and density constants evaluated from both their Euler products and their
alternating series, each with a bracket guaranteed to contain the true
value.

Every name in ``__all__`` loads its submodule on first use (PEP 562), so
``import eisencount`` loads no layer, and ``import eisencount.cli`` only
the ones every subcommand needs.
"""

import importlib
import os

# eisencount calls no BLAS routine (its one matmul is int64, which numpy
# runs in its own loop), but numpy's OpenBLAS starts a worker per CPU when
# it loads, which slows each process's start by about 60 ms on two cores.
# This runs before any submodule imports numpy; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "1.0.0"

# The public names of each submodule.
_EXPORTS = {
    "arith": ("ArithSieve", "Factorization", "build_sieve", "factorize",
              "mobius", "euler_phi", "omega", "tau", "phi_bounded",
              "mobius_table", "totient_table"),
    "oracle": ("Polynomial", "eisenstein_witnesses", "is_eisenstein",
               "brute_count_monic", "brute_count_general"),
    "results": ("ExactCount",),
    "counting": ("count_monic_s", "count_general_s",
                 "count_monic_eisenstein", "count_general_eisenstein"),
    "density": ("DensityEstimate", "theta_product", "rho_product",
                "theta_series", "rho_series", "asymptotic_main",
                "refined_asymptotic_theta"),
    "report": ("DensityTable", "ErrorTermRow", "density_table",
               "error_term_profile", "emit_csv", "emit_json"),
    "errors": ("BudgetExceededError", "InvariantError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    """A public name, from its submodule."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
