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
        if not 0 <= self.y_m < math.inf:
            raise ValueError(f"cubic gate outcomes use the y_m >= 0 convention and are "
                             f"finite, got y_m={self.y_m}")

    @property
    def resource(self) -> CubicPhaseResource:
        return CubicPhaseResource(self.gamma, self.s)


def squeezing_db(s: float) -> float:
    """Momentum squeezing of the ancilla in dB; s is an amplitude factor."""
    return -20.0 * math.log10(s)


def squeezing_scan(gamma: float, y_m: float, s_values,
                   grid: Grid | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(probability, infidelity) at each s of ``s_values``, in the order
    given: one call of ``squeezing_curve``."""
    return squeezing_curve(gamma, y_m, grid)(s_values)


def squeezing_curve(gamma: float, y_m: float, grid: Grid | None = None):
    """The one squeezing curve at fixed (gamma, y_m), of the sweeps and the
    fits: s values -> (P(y_m), infidelity against the odd/even cat of the Fock
    gate with ``REFERENCE_N`` photons at y_m = 0).  Its input, reference and
    ``gate.Grader`` are built once.  A call checks every s, then grades all in
    one ``Grader.grade``, each to the bits of a job of its own; the first s
    that cannot be graded raises."""
    grid = grid or default_grid()
    grader = gate.Grader(make_vacuum(grid), reference_cat(REFERENCE_N, 0.0, grid))

    def curve(s_values) -> tuple[np.ndarray, np.ndarray]:
        configs = [CubicGateConfig(gamma, y_m, float(s)) for s in s_values]
        probability, fidelity = grader.grade([(c.resource, [y_m]) for c in configs])
        return probability, 1.0 - fidelity

    return curve
