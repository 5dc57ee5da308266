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
        if not self.y_m >= 0:
            raise ValueError("cubic gate outcomes use the y_m >= 0 convention")

    @property
    def resource(self) -> CubicPhaseResource:
        return CubicPhaseResource(self.gamma, self.s)


def squeezing_db(s: float) -> float:
    """Momentum squeezing of the ancilla in dB; s is an amplitude factor."""
    return -20.0 * math.log10(s)


def squeezing_scan(
    gamma: float,
    y_m: float,
    s_values,
    grid: Grid | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scan the squeezing factor at fixed (gamma, y_m), recording P(y_m) and
    the infidelity against the odd/even cat produced by the Fock gate with
    ``REFERENCE_N`` photons at y_m = 0: the one squeezing curve, of the
    sweeps and of ``matching.fit_squeezing``.  Every operating point is
    checked before any is graded, and the whole sweep is graded in one pass
    (``gate.grade_resources``): the values of one ``grade_outcomes`` call
    per s, and the first s that cannot be graded raises.  Returns
    (probability, infidelity), one value per s, in the order given."""
    configs = [CubicGateConfig(gamma, y_m, float(s)) for s in s_values]
    grid = grid or default_grid()
    reference = reference_cat(REFERENCE_N, 0.0, grid)
    probability, fidelity = gate.grade_resources(make_vacuum(grid), [c.resource for c in configs],
                                                 y_m, reference)
    return probability, 1.0 - fidelity
