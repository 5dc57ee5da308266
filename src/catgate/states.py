"""The physical states used by the gates: the two ancilla resources with the
closed forms the gate reads them through, and constructors for vacuum, Fock,
cubic phase states and displaced-coherent-superposition (cat) references."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import NyquistError
from .numerics import (
    AIRY_BLOCK,
    SUPPORT_LOG,
    Grid,
    WaveFunction,
    _airy_factor,
    hermite_function,
    hermite_values,
    oscillatory_fourier_factor,
    validate_cubic_params,
    validate_fock_order,
)

Parity = Literal["even", "odd"]


class Resource:
    """An ancilla state of the gate.  A resource is known to the gate only
    through three closed forms, the first also in batches (``momentum_factors``):

    * ``momentum_factor(y)``, the amplitude [F psi_res](y) that multiplies the
      input in the collapse;
    * ``band()``, the half-width of F's spectrum psi_res, beyond which it is
      below ``SUPPORT_TOL`` of its peak; the grader's step comes from it;
    * ``copy_shift(u)``, the semiclassical in-out mapping: at u = y - q
      (outcome y, target position q) the target momentum becomes
      p_in +- delta_p(u), the two copies of a cat; of u's shape, NaN where
      the measurement admits no copy.
    """

    #: Most values per ``momentum_factors`` call of the grader, for every
    #: resource: a Fock block of 2 MiB was faulted in afresh on every block.
    pass_nodes = AIRY_BLOCK

    def momentum_factor(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @classmethod
    def momentum_factors(cls, resources, counts, y: np.ndarray) -> np.ndarray:
        """Complex factors of a 1-D float array of y, ``counts[k]`` values in
        turn for each of ``resources``: one ``momentum_factor`` call each."""
        ends = np.cumsum(counts).tolist()
        return np.concatenate([resource.momentum_factor(y[end - count:end])
                               for resource, count, end in zip(resources, counts, ends)])

    def band(self) -> float:
        raise NotImplementedError

    def copy_shift(self, u) -> np.ndarray:
        raise NotImplementedError


def require_resource(resource) -> Resource:
    """``resource`` itself if it is a gate resource, else TypeError."""
    if not isinstance(resource, Resource):
        raise TypeError(f"unsupported resource {resource!r}")
    return resource


@dataclass(frozen=True)
class FockResource(Resource):
    """Ancilla prepared in the number state |n>."""

    n: int

    def __post_init__(self) -> None:
        validate_fock_order(self.n)

    def momentum_factor(self, y: np.ndarray) -> np.ndarray:
        """|n> is its own Fourier transform up to (-i)^n."""
        return (-1j) ** self.n * hermite_values(self.n, y)

    @property
    def turning_square(self) -> int:
        """2n + 1, the square of the Hermite function's turning point, exact."""
        return 2 * self.n + 1

    def band(self) -> float:
        """The Hermite function's turning point sqrt(2n+1) plus the n = 0
        Gaussian edge sqrt(2 SUPPORT_LOG)."""
        return float(self.copy_shift(0.0)) + math.sqrt(2.0 * SUPPORT_LOG)

    def copy_shift(self, u) -> np.ndarray:
        """delta_p = sqrt(2n + 1 - u^2), NaN for u^2 > 2n + 1.  |u| is capped
        at 2 (2n + 1), far outside the turning points, so u^2 cannot overflow."""
        radicand = self.turning_square - np.minimum(np.abs(u), 2.0 * self.turning_square) ** 2
        return np.sqrt(np.where(radicand >= 0, radicand, np.nan))


@dataclass(frozen=True)
class CubicPhaseResource(Resource):
    """Ancilla prepared as a momentum-squeezed vacuum (factor s) evolved under
    a cubic Hamiltonian of strength gamma."""

    gamma: float
    s: float

    def __post_init__(self) -> None:
        validate_cubic_params(self.gamma, self.s)

    def momentum_factor(self, y: np.ndarray) -> np.ndarray:
        """An Airy function (``oscillatory_fourier_factor``)."""
        return np.asarray(oscillatory_fourier_factor(self.gamma, self.s, y))

    @classmethod
    def momentum_factors(cls, resources, counts, y: np.ndarray) -> np.ndarray:
        """One Airy pass (``numerics._airy_factor``), bit for bit the calls one by one."""
        return _airy_factor([(r.gamma, r.s) for r in resources], counts, y).astype(np.complex128)

    def band(self) -> float:
        """|psi_res| is the Gaussian (s^2/pi)^(1/4) exp(-s^2 t^2/2), which
        falls to exp(-SUPPORT_LOG) of its peak at t = sqrt(2 SUPPORT_LOG)/s."""
        return math.sqrt(2.0 * SUPPORT_LOG) / self.s

    def copy_shift(self, u) -> np.ndarray:
        """delta_p = sqrt(u / (3 gamma)), NaN for u < 0, and NaN for every u at
        gamma = 0, where the cubic gate makes no cat.  Where the ratio is
        beyond the float range the root is taken as sqrt(u) / sqrt(3 gamma),
        finite unless delta_p itself is."""
        u = np.asarray(u, dtype=np.float64)
        if self.gamma == 0.0:
            return np.full(u.shape, np.nan)
        with np.errstate(over="ignore"):
            ratio = u / (3.0 * self.gamma)
            split = np.sqrt(np.maximum(u, 0.0)) / math.sqrt(3.0 * self.gamma)
        return np.where(ratio == np.inf, split, np.sqrt(np.where(ratio >= 0, ratio, np.nan)))


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
    """Ground state psi(x) = pi^(-1/4) exp(-x^2/2), normalized on the grid."""
    grid.require_coverage(-6.0, 6.0, "vacuum state")
    return WaveFunction(grid, np.exp(-grid.points ** 2 / 2.0)).normalized()


def make_fock(n: int, grid: Grid) -> WaveFunction:
    return hermite_function(n, grid)


def make_cubic_phase(gamma: float, s: float, grid: Grid) -> WaveFunction:
    """Cubic phase state psi(x) = (s^2/pi)^(1/4) exp(-s^2 x^2/2) exp(i gamma x^3).

    The grid must hold the wide coordinate distribution (sigma = 1/(s sqrt 2))
    and resolve the cubic phase oscillation; otherwise the sampled state would
    alias.  Normalization is fixed on the grid.
    """
    validate_cubic_params(gamma, s)
    half_support = 6.0 / s
    grid.require_coverage(-half_support, half_support, f"cubic phase state s={s}")
    max_slope = 3.0 * gamma * max(grid.x_min ** 2, grid.x_max ** 2)
    if max_slope > 0 and grid.spacing > np.pi / (4.0 * max_slope):
        raise NyquistError(
            f"grid spacing {grid.spacing:.2e} cannot represent the cubic phase "
            f"(needs <= {np.pi / (4.0 * max_slope):.2e})"
        )
    x = grid.points
    return WaveFunction(grid, np.exp(-s ** 2 * x ** 2 / 2.0 + 1j * gamma * x ** 3)).normalized()


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
