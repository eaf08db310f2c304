"""Equilibrium observables of a lattice-regularized interacting Bose gas.

Four independent routes to the same grand-canonical quantities, exact
small-system oracles, and the limiting regimes that tie them together:

    fock        truncated Fock-space traces (exact oracle, few sites)
    hsfield     auxiliary Gaussian field / determinant estimator
    loopgas     Brownian loop ensembles with interaction reweighting
    mayer       cluster (Ursell) expansion of ln Xi
    meanfield   classical Hartree field theory and its eta representation
    limits      classical-particle, mean-field and large-N sweeps
"""

from .lattice import (CapacityError, CirclePotential, ModelParams, TimeGrid,
                      TorusGeometry, TwoBodyPotential, UnsupportedModeError,
                      delta_potential, validate_potential,
                      wrapped_gaussian_potential)
from .propagators import (circle_heat_kernel, free_green, heat_propagator,
                          ideal_occupation, monodromy_batch)
from .stats import (ComplexEstimate, batch_means, mean_estimate,
                    ratio_estimate, weight_ess)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CirclePotential",
    "ComplexEstimate",
    "ModelParams",
    "TimeGrid",
    "TorusGeometry",
    "TwoBodyPotential",
    "UnsupportedModeError",
    "batch_means",
    "circle_heat_kernel",
    "delta_potential",
    "free_green",
    "heat_propagator",
    "ideal_occupation",
    "mean_estimate",
    "monodromy_batch",
    "ratio_estimate",
    "validate_potential",
    "weight_ess",
    "wrapped_gaussian_potential",
    "__version__",
]
