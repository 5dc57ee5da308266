"""Semiclassical layer: the copy phase the measurement adds to the target
wavefunction, its linearization into cat parameters (theta, p_plus), and the
reference cat construction.

The in-out mapping is each resource's ``copy_shift``: a Fock ancilla shifts
the target momentum by +- delta_p(x) = +- sqrt(2n + 1 - (y_m - x)^2), the two
signs being the two "copies" of a cat.  The accumulated phase of each copy is
the antiderivative of delta_p, written via z = (x - y_m)/sqrt(2n+1) as

    phi(n, z) = (2n + 1)/2 * (z sqrt(1 - z^2) + arcsin z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LinearizationDomainError
from .numerics import Grid, WaveFunction
from .states import CatParams, FockResource, Parity, make_cat

#: Photon number of the Fock-gate cat that the cubic-resource gate is graded
#: against and matched to: the reference of its fidelities, its matched
#: outcome ratio and its odd-cat ladder.
REFERENCE_N = 5

#: Distance in z from the turning points |z| = 1 inside which
#: ``added_factor`` flags its points invalid.
_TURNING_MARGIN = 1e-3


def phase_function(n: int, z) -> np.ndarray:
    """Accumulated semiclassical phase phi(n, z) of one copy; |z| <= 1."""
    z = np.asarray(z, dtype=np.float64)
    if np.any(np.abs(z) > 1.0):
        raise ValueError("phase_function is defined for |z| <= 1")
    return 0.5 * FockResource(n).turning_square * (z * np.sqrt(1.0 - z ** 2) + np.arcsin(z))


def added_factor(n: int, y_m: float, x):
    """Superposition of the two semiclassical copy factors,

        (1 - z^2)^(-1/4) [exp(i phi) + (-1)^n exp(-i phi)],

    with the 1/|delta_p| branch weights folded into the prefactor, defined up
    to one overall constant.  Valid only away from the turning points: points
    with |z| >= 1 - ``_TURNING_MARGIN`` are flagged invalid and get value 0.

    Returns (values, valid_mask).
    """
    x = np.asarray(x, dtype=np.float64)
    z = (x - y_m) / FockResource(n).copy_shift(0.0)
    valid = np.abs(z) < 1.0 - _TURNING_MARGIN
    z_safe = np.clip(z, -1.0 + _TURNING_MARGIN, 1.0 - _TURNING_MARGIN)
    phi = phase_function(n, z_safe)
    values = (1.0 - z_safe ** 2) ** -0.25 * (np.exp(1j * phi) + (-1) ** n * np.exp(-1j * phi))
    values = np.where(valid, values, 0.0 + 0.0j)
    return values, valid


def linearize(n: int, y_m: float) -> CatParams:
    """Cat parameters from the linear Taylor term of the copy phase, expanded
    around the input's center: theta = phi(n, -y_m/sqrt(2n+1)),
    p_plus = sqrt(2n + 1 - y_m^2)."""
    theta, p_plus = BestPhaseCat(n).parameters(y_m)
    parity: Parity = "even" if n % 2 == 0 else "odd"
    return CatParams(p_plus=float(p_plus), theta=float(theta), parity=parity)


def reference_cat(n: int, y_m: float, grid: Grid) -> WaveFunction:
    """The coherent-superposition target the exact output is compared to."""
    return make_cat(linearize(n, y_m), grid)


@dataclass(frozen=True)
class BestPhaseCat:
    """The best-phase reference of the n-photon Fock gate, a cat that changes
    with the outcome: at outcome y it is the cat of ``linearize(n, y)``,

        cat_y(x) = c(theta(y) + p_plus(y) x) exp(-x^2/2) / sqrt(N(y)),

    c = cos for even n and sin for odd n (``make_cat``'s global factor i
    dropped), with the closed-form norm
    N(y) = (sqrt(pi)/2) (1 +- cos(2 theta) exp(-p_plus^2)).  ``reference_cat``
    builds one of these on a grid; a ``gate.Grader`` grades against the
    whole family at once, as the outcome-free ``envelope`` exp(-x^2/2) times
    the ``modulation`` c(...) / sqrt(N), whose spectrum is the two lines
    +-p_plus(y).
    """

    n: int

    def parameters(self, y_m) -> tuple[np.ndarray, np.ndarray]:
        """theta and p_plus, the copy shift, at each outcome; LinearizationDomainError
        unless every outcome lies in the cat domain y_m^2 < 2n + 1; NaN lies outside."""
        resource = FockResource(self.n)
        y_m = np.asarray(y_m, dtype=np.float64)
        p_plus = resource.copy_shift(y_m)
        outside = ~(p_plus > 0)
        if np.any(outside):
            raise LinearizationDomainError(
                f"outcome y_m={y_m[outside].flat[0]} outside the cat domain "
                f"y_m^2 < {resource.turning_square}"
            )
        theta = phase_function(self.n, -y_m / resource.copy_shift(0.0))
        return theta, p_plus

    def band(self) -> float:
        """sqrt(2n + 1), the largest p_plus at any outcome: a bound on the
        half-width of every modulation's spectrum."""
        return float(FockResource(self.n).copy_shift(0.0))

    @staticmethod
    def envelope(x: np.ndarray) -> np.ndarray:
        return np.exp(-x ** 2 / 2.0)

    def modulation(self, y_values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """c(theta(y) + p_plus(y) x) / sqrt(N(y)), one row per outcome."""
        theta, p_plus = self.parameters(y_values)
        sign = 1.0 if self.n % 2 == 0 else -1.0
        norm = 0.5 * math.sqrt(math.pi) * (1.0 + sign * np.cos(2.0 * theta) * np.exp(-p_plus ** 2))
        rows = theta[:, None] + p_plus[:, None] * x
        rows = np.cos(rows, out=rows) if sign > 0 else np.sin(rows, out=rows)
        rows /= np.sqrt(norm)[:, None]
        return rows

