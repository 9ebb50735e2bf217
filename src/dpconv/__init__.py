"""Numerical (epsilon, delta) accounting for subsampled Gaussian mechanisms.

The pipeline: build the privacy loss density of one mechanism (mechanisms),
sample it on a symmetric grid (discretization), convolve k compositions via
the FFT (spectral), and evaluate tight delta(epsilon) or its exact inverse
on the grid (accountant), with tail/periodisation/discretisation error
control (error_bounds) and slow independent cross-checks (oracle).
"""

from .accountant import (
    CompositionQuery,
    DeltaResult,
    delta_of_epsilon,
    delta_of_epsilons,
    epsilon_of_delta,
)
from .discretization import ConvolvedPld, Grid, discretize
from .error_bounds import (
    BoundResult,
    alpha_bound,
    alpha_lambda_limit,
    analytic_lambda_limit,
    analytic_tail_bound,
    discretization_estimate,
    periodisation_bound,
    tail_estimate,
)
from .errors import (
    AccountingError,
    DomainError,
    GridTooSmallError,
    NonConvergenceError,
    RootFindingError,
    SpectralResidueError,
    TargetDeltaBelowFloor,
    TargetDeltaTooLarge,
)
from .mechanisms import (
    Direction,
    MechanismSpec,
    PldDensity,
    Scheme,
    loss_inverse_poisson,
    loss_inverse_with_replacement,
    loss_inverse_without_replacement,
    loss_poisson,
    loss_with_replacement,
    loss_without_replacement,
    pld_density,
    pld_density_poisson,
    pld_density_with_replacement,
    pld_density_without_replacement,
)

__version__ = "0.1.0"

__all__ = [
    "AccountingError",
    "BoundResult",
    "CompositionQuery",
    "ConvolvedPld",
    "DeltaResult",
    "Direction",
    "DomainError",
    "Grid",
    "GridTooSmallError",
    "MechanismSpec",
    "NonConvergenceError",
    "PldDensity",
    "RootFindingError",
    "Scheme",
    "SpectralResidueError",
    "TargetDeltaBelowFloor",
    "TargetDeltaTooLarge",
    "alpha_bound",
    "alpha_lambda_limit",
    "analytic_lambda_limit",
    "analytic_tail_bound",
    "delta_of_epsilon",
    "delta_of_epsilons",
    "discretization_estimate",
    "discretize",
    "epsilon_of_delta",
    "loss_inverse_poisson",
    "loss_inverse_with_replacement",
    "loss_inverse_without_replacement",
    "loss_poisson",
    "loss_with_replacement",
    "loss_without_replacement",
    "periodisation_bound",
    "pld_density",
    "pld_density_poisson",
    "pld_density_with_replacement",
    "pld_density_without_replacement",
    "tail_estimate",
]
