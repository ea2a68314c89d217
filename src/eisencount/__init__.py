"""Exact counting and rigorous density evaluation for Eisenstein polynomials.

Two independent routes to every headline number: fast exact counts by
Moebius inclusion-exclusion cross-checked against brute-force enumeration,
and density constants evaluated from both their Euler products and their
alternating series, each with a bracket guaranteed to contain the true
value.
"""

import os

# eisencount calls no BLAS routine (its one matmul is int64, which numpy
# runs in its own loop), but numpy's OpenBLAS starts a worker per CPU when
# it loads, which slows each process's start by about 60 ms on two cores.
# This runs before any submodule imports numpy; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arith import (ArithSieve, Factorization, build_sieve, euler_phi,
                    factorize, mobius, mobius_table, omega, phi_bounded, tau,
                    totient_table)
from .counting import (count_general_eisenstein, count_general_s,
                       count_monic_eisenstein, count_monic_s)
from .density import (DensityEstimate, asymptotic_main, refined_asymptotic_theta,
                      rho_product, rho_series, theta_product, theta_series)
from .errors import BudgetExceededError, InvariantError
from .oracle import (Polynomial, brute_count_general, brute_count_monic,
                     eisenstein_witnesses, is_eisenstein)
from .report import (DensityTable, ErrorTermRow, density_table, emit_csv,
                     emit_json, error_term_profile)
from .results import ExactCount

__version__ = "1.0.0"

__all__ = [
    "ArithSieve", "Factorization", "build_sieve", "factorize", "mobius",
    "euler_phi", "omega", "tau", "phi_bounded", "mobius_table",
    "totient_table",
    "Polynomial", "eisenstein_witnesses", "is_eisenstein",
    "brute_count_monic", "brute_count_general",
    "ExactCount", "count_monic_s", "count_general_s",
    "count_monic_eisenstein", "count_general_eisenstein",
    "DensityEstimate", "theta_product", "rho_product", "theta_series",
    "rho_series", "asymptotic_main", "refined_asymptotic_theta",
    "DensityTable", "ErrorTermRow", "density_table", "error_term_profile",
    "emit_csv", "emit_json",
    "BudgetExceededError", "InvariantError",
    "__version__",
]
