"""The exact gate pipeline: QND entangling of target and ancilla followed by a
homodyne measurement of the ancilla momentum with outcome y_m.

The measurement collapses the target to

    psi_out(x) ~ psi_in(x) * [F psi_res](y_m - x),

where the second factor is the momentum-representation amplitude of the
resource state.  Its squared norm before normalization is the probability
density of observing y_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroProbabilityError
from .numerics import (
    WaveFunction,
    hermite_values,
    oscillatory_fourier_factor,
)
from .states import CubicPhaseResource, FockResource, ResourceSpec

#: Below this squared norm an outcome is treated as impossible; the collapsed
#: state (and any fidelity) is undefined there.
MIN_COLLAPSE_NORM = 1e-300


@dataclass
class CollapseResult:
    """Normalized output state plus the measurement bookkeeping.

    ``norm_N`` is the squared norm of the unnormalized collapsed state and
    equals the probability density of the outcome ``y_m``.
    """

    psi_out: WaveFunction
    norm_N: float
    y_m: float
    resource: ResourceSpec


def _resource_momentum_factor(resource: ResourceSpec, y: np.ndarray) -> np.ndarray:
    """[F psi_res](y) for the supported resources.

    Both are closed forms: a Fock ancilla is its own Fourier transform up to
    (-i)^n, and the cubic phase state's factor is an Airy function.
    """
    if isinstance(resource, FockResource):
        return (-1j) ** resource.n * hermite_values(resource.n, y)
    if isinstance(resource, CubicPhaseResource):
        return np.asarray(oscillatory_fourier_factor(resource.gamma, resource.s, y))
    raise TypeError(f"unsupported resource {resource!r}")


def collapse(psi_in: WaveFunction, resource: ResourceSpec, y_m: float) -> CollapseResult:
    """Collapse the target state by a homodyne outcome y_m on the ancilla."""
    grid = psi_in.grid
    factor = _resource_momentum_factor(resource, y_m - grid.points)
    unnormalized = psi_in.values * factor
    norm_n = float(np.trapezoid(np.abs(unnormalized) ** 2, dx=grid.spacing))
    if norm_n < MIN_COLLAPSE_NORM:
        raise ZeroProbabilityError(
            f"outcome y_m={y_m} has vanishing probability density for {resource!r}"
        )
    psi_out = WaveFunction(grid, unnormalized / math.sqrt(norm_n))
    return CollapseResult(psi_out=psi_out, norm_N=norm_n, y_m=y_m, resource=resource)


def probability_density(psi_in: WaveFunction, resource: ResourceSpec, y_m: float) -> float:
    """Probability density of the outcome y_m,
    ``integral dx |psi_in(x)|^2 |[F psi_res](y_m - x)|^2``."""
    grid = psi_in.grid
    factor = _resource_momentum_factor(resource, y_m - grid.points)
    integrand = np.abs(psi_in.values) ** 2 * np.abs(factor) ** 2
    return float(np.trapezoid(integrand, dx=grid.spacing))


def probability_scan(psi_in: WaveFunction, resource: ResourceSpec, y_values) -> np.ndarray:
    """Probability density over a set of outcomes.

    Returns an array of shape (len(y_values), 2) with columns (y_m, P).
    Results are assembled in input order.
    """
    y_values = np.asarray(y_values, dtype=np.float64)
    out = np.empty((y_values.size, 2))
    for i, y_m in enumerate(y_values):
        out[i, 0] = y_m
        out[i, 1] = probability_density(psi_in, resource, float(y_m))
    return out
