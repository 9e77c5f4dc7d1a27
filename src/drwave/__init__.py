"""Spherical Fourier analysis and dispersive propagators on Damek-Ricci
spaces: spherical functions by two series routes checked against their
hypergeometric closed form, the c-function and Plancherel density, the
radial transform pair with Sobolev norms, table-driven dispersive phases
with their maximal functions, dyadic oscillatory-sum checks, and the
scaling experiments that exhibit the 1/4 regularity threshold, the
second of them carried from a Euclidean radial spectrum by the one
correspondence weight lambda^(n-1) / |c|^-2.
"""

from .dispersive import (
    PhaseKind,
    default_t_grid,
    maximal_function,
    phase,
    phase_derivs,
    propagate,
    verify_phase_asymptotics,
)
from .experiments import (
    ExperimentReport,
    case1_family,
    case1_run,
    case2_family,
    case2_run,
    implied_p_bound,
    transference_check,
)
from .oscillatory import (
    dyadic_sum_check,
    sample_claim_triples,
    window_integral,
)
from .profiles import RadialProfile, SpectralProfile
from .space import SpaceParams, density, log_density_derivative, new_space
from .special import (
    c_function,
    plancherel_density,
    script_j,
)
from .spherical import (
    phi,
    phi_matrix,
)
from .transform import (
    euclidean_correspondence_inverse,
    inversion_constant,
    sft_forward,
    sft_inverse,
    sobolev_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentReport",
    "PhaseKind",
    "RadialProfile",
    "SpaceParams",
    "SpectralProfile",
    "c_function",
    "case1_family",
    "case1_run",
    "case2_family",
    "case2_run",
    "default_t_grid",
    "density",
    "dyadic_sum_check",
    "euclidean_correspondence_inverse",
    "implied_p_bound",
    "inversion_constant",
    "log_density_derivative",
    "maximal_function",
    "new_space",
    "phase",
    "phase_derivs",
    "phi",
    "phi_matrix",
    "plancherel_density",
    "propagate",
    "sample_claim_triples",
    "script_j",
    "sft_forward",
    "sft_inverse",
    "sobolev_norm",
    "transference_check",
    "verify_phase_asymptotics",
    "window_integral",
]
