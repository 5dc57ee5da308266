"""Constructors for the physical states used by the gates: vacuum, Fock,
cubic phase states, and displaced-coherent-superposition (cat) references."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np

from .errors import NyquistError
from .numerics import (
    MAX_HERMITE_ORDER,
    Grid,
    WaveFunction,
    hermite_function,
    validate_cubic_params,
)

Parity = Literal["even", "odd"]


@dataclass(frozen=True)
class FockResource:
    """Ancilla prepared in the number state |n>."""

    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_HERMITE_ORDER:
            raise ValueError(
                f"Fock resource supports n in [0, {MAX_HERMITE_ORDER}], got {self.n}"
            )


@dataclass(frozen=True)
class CubicPhaseResource:
    """Ancilla prepared as a momentum-squeezed vacuum (factor s) evolved under
    a cubic Hamiltonian of strength gamma."""

    gamma: float
    s: float

    def __post_init__(self) -> None:
        validate_cubic_params(self.gamma, self.s)


ResourceSpec = Union[FockResource, CubicPhaseResource]


@dataclass(frozen=True)
class CatParams:
    """Cat state parameters: each copy displaced by +-p_plus along momentum,
    with relative phase theta; parity selects the cosine or sine form."""

    p_plus: float
    theta: float
    parity: Parity

    def __post_init__(self) -> None:
        if self.p_plus < 0:
            raise ValueError("p_plus must be non-negative")
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")


def make_vacuum(grid: Grid) -> WaveFunction:
    """Ground state psi(x) = pi^(-1/4) exp(-x^2/2)."""
    grid.require_coverage(-6.0, 6.0, "vacuum state")
    values = np.pi ** -0.25 * np.exp(-grid.points ** 2 / 2.0)
    return WaveFunction(grid, values.astype(np.complex128)).normalized()


def make_fock(n: int, grid: Grid) -> WaveFunction:
    return hermite_function(n, grid)


def make_cubic_phase(gamma: float, s: float, grid: Grid) -> WaveFunction:
    """Cubic phase state psi(x) = (s^2/pi)^(1/4) exp(-s^2 x^2/2) exp(i gamma x^3).

    The grid must hold the wide coordinate distribution (sigma = 1/(s sqrt 2))
    and resolve the cubic phase oscillation; otherwise the sampled state would
    alias.
    """
    CubicPhaseResource(gamma, s)  # range validation
    half_support = 6.0 / s
    grid.require_coverage(-half_support, half_support, f"cubic phase state s={s}")
    max_slope = 3.0 * gamma * max(grid.x_min ** 2, grid.x_max ** 2)
    if max_slope > 0 and grid.spacing > np.pi / (4.0 * max_slope):
        raise NyquistError(
            f"grid spacing {grid.spacing:.2e} cannot represent the cubic phase "
            f"(needs <= {np.pi / (4.0 * max_slope):.2e})"
        )
    x = grid.points
    values = (s ** 2 / np.pi) ** 0.25 * np.exp(-s ** 2 * x ** 2 / 2.0 + 1j * gamma * x ** 3)
    return WaveFunction(grid, values).normalized()


def make_cat(params: CatParams, grid: Grid) -> WaveFunction:
    """Superposition of two momentum-displaced coherent states.

    Even parity: psi ~ cos(theta + p_plus x) exp(-x^2/2); odd parity the sine
    form carries a global factor i.  Normalization is fixed on the grid.
    """
    grid.require_coverage(-6.0, 6.0, "cat state")
    sign = 1.0 if params.parity == "even" else -1.0
    if 1.0 + sign * math.cos(2 * params.theta) * math.exp(-params.p_plus ** 2) < 1e-15:
        raise ValueError("degenerate cat parameters: the two copies cancel")
    x = grid.points
    arg = params.theta + params.p_plus * x
    copies = np.cos(arg) if params.parity == "even" else 1j * np.sin(arg)
    return WaveFunction(grid, copies * np.exp(-x ** 2 / 2.0)).normalized()
