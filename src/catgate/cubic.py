"""Cubic-phase-state branch of the gate: its operating points and the
squeezing-dependent probability/fidelity diagnostics used to compare it
against the Fock-state gate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gate
from .numerics import MIN_SQUEEZING, Grid, default_grid, validate_cubic_params
from .semiclassical import REFERENCE_N, reference_cat
from .states import CubicPhaseResource, make_vacuum

#: The squeezing sweep 'lo, hi, count' of the fits and of ``scan squeeze``.
SQUEEZING_SWEEP = (MIN_SQUEEZING, 1.0, 39)


@dataclass(frozen=True)
class CubicGateConfig:
    """One operating point of the cubic gate.  Outcomes are taken y_m >= 0 by
    convention; unlike the Fock branch the curves are not symmetric in y_m."""

    gamma: float
    y_m: float
    s: float

    def __post_init__(self) -> None:
        validate_cubic_params(self.gamma, self.s)
        if self.y_m < 0:
            raise ValueError("cubic gate outcomes use the y_m >= 0 convention")

    @property
    def resource(self) -> CubicPhaseResource:
        return CubicPhaseResource(self.gamma, self.s)


def squeezing_db(s: float) -> float:
    """Momentum squeezing of the ancilla in dB; s is an amplitude factor."""
    return -20.0 * math.log10(s)


@dataclass
class SqueezingScan:
    """Probability density and cat infidelity versus the squeezing factor at
    fixed (gamma, y_m)."""

    s: np.ndarray
    probability: np.ndarray
    infidelity: np.ndarray

    @property
    def inverse_s(self) -> np.ndarray:
        return 1.0 / self.s


def squeezing_scan(
    gamma: float,
    y_m: float,
    s_values,
    grid: Grid | None = None,
) -> SqueezingScan:
    """Scan the squeezing factor at fixed (gamma, y_m), recording P(y_m) and
    the infidelity against the odd/even cat produced by the Fock gate with
    ``REFERENCE_N`` photons at y_m = 0."""
    grid = grid or default_grid()
    psi_in = make_vacuum(grid)
    reference = reference_cat(REFERENCE_N, 0.0, grid)
    s_values = np.asarray(s_values, dtype=np.float64)
    probability = np.empty_like(s_values)
    infidelity = np.empty_like(s_values)
    for i, s in enumerate(s_values):
        cfg = CubicGateConfig(gamma, y_m, float(s))
        p, f = gate.grade_outcomes(psi_in, cfg.resource, [cfg.y_m], reference)
        probability[i], infidelity[i] = p[0], 1.0 - f[0]
    return SqueezingScan(s=s_values, probability=probability, infidelity=infidelity)
