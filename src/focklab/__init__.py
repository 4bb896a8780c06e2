"""Numerical verification lab for Toeplitz operator norm bounds on the
Bargmann-Fock space.

The package computes truncated Toeplitz matrices for indicator-type,
radial and sampled symbols and their operator norms (LAPACK eigenvalues,
with Sturm-count bisection of the tridiagonal form as a LAPACK-free solver
to check them; the norms carry no residual certificate), and checks the
exponential saturation bound
||T_phi|| <= ||phi||_inf (1 - e^{-||phi||_1 / ||phi||_inf}) together with
the Gaussian concentration inequality it rests on.
"""

import os as _os

# Pin BLAS/OMP pools before numpy is first imported so reductions are
# byte-reproducible across runs and machine thread counts. setdefault keeps
# any explicit user override.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _os, _var

from .fock import FockFunction, coherent, random_unit
from .regions import AnnularSector, Disc, Region, area, disjoint
from .symbols import PolarGrid, RadialSymbol, SampledSymbol, SimpleSymbol, discretize
from .quadrature import RadialRule, gauss_legendre, integrate_region
from .toeplitz import (
    HermitianMatrix,
    assemble,
    jacobi_eigenvalues,
    operator_norm,
    radial_assemble,
    rayleigh,
    region_compression,
    top_eigenpair,
)
from .experiments import (
    VerificationReport,
    WeightedPartition,
    approximation_experiment,
    make_report,
    random_partition,
    random_region,
    random_symbol,
    sharpness_experiment,
    symbol_norm_bound,
    verify_concentration,
    verify_norm_bound,
    verify_weighted_partition,
)

__version__ = "0.1.0"

__all__ = [
    "AnnularSector",
    "Disc",
    "FockFunction",
    "HermitianMatrix",
    "PolarGrid",
    "RadialRule",
    "RadialSymbol",
    "Region",
    "SampledSymbol",
    "SimpleSymbol",
    "VerificationReport",
    "WeightedPartition",
    "approximation_experiment",
    "area",
    "assemble",
    "coherent",
    "discretize",
    "disjoint",
    "gauss_legendre",
    "integrate_region",
    "jacobi_eigenvalues",
    "make_report",
    "operator_norm",
    "radial_assemble",
    "top_eigenpair",
    "random_partition",
    "random_region",
    "random_symbol",
    "random_unit",
    "rayleigh",
    "region_compression",
    "sharpness_experiment",
    "symbol_norm_bound",
    "verify_concentration",
    "verify_norm_bound",
    "verify_weighted_partition",
    "__version__",
]
