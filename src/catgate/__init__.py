"""Numerical simulator for measurement-assisted cat-state gates.

A target oscillator is entangled with an ancilla (Fock state or cubic phase
state) by a QND interaction; a homodyne measurement of the ancilla momentum
collapses the target into a superposition of two displaced copies of its
input.  The package reproduces the exact collapsed states, their Wigner
functions, success probabilities and cat fidelities, the semiclassical
picture behind them, and the parameter matching between the two resources.
"""

__version__ = "0.1.0"

from .analysis import (
    WignerGrid,
    WignerRows,
    fidelity,
    fidelity_cat,
    fidelity_coh,
    fidelity_mix,
    wigner,
)
from .cubic import CubicGateConfig, squeezing_db, squeezing_scan
from .errors import (
    CatGateError,
    ConvergenceError,
    FitRangeError,
    GridMismatchError,
    GridSupportError,
    LinearizationDomainError,
    NyquistError,
    ZeroProbabilityError,
)
from .gate import (
    CollapseResult,
    Grader,
    collapse,
    probability_density,
    probability_scan,
)
from .matching import (
    GateComparison,
    GateSideReport,
    MatchReport,
    compare_gates,
    fit_squeezing,
    matched_outcome_ratio,
    odd_cat_ladder,
)
from .numerics import (
    Grid,
    WaveFunction,
    default_grid,
    fourier_transform,
    hermite_function,
    hermite_values,
    oscillatory_fourier_factor,
    overlap,
)
from .semiclassical import (
    BestPhaseCat,
    added_factor,
    linearize,
    phase_function,
    reference_cat,
)
from .states import (
    CatParams,
    CubicPhaseResource,
    FockResource,
    make_cat,
    make_cubic_phase,
    make_fock,
    make_vacuum,
)

__all__ = [
    "BestPhaseCat",
    "CatGateError",
    "CatParams",
    "CollapseResult",
    "ConvergenceError",
    "CubicGateConfig",
    "CubicPhaseResource",
    "FitRangeError",
    "FockResource",
    "GateComparison",
    "GateSideReport",
    "Grader",
    "Grid",
    "GridMismatchError",
    "GridSupportError",
    "LinearizationDomainError",
    "MatchReport",
    "NyquistError",
    "WaveFunction",
    "WignerGrid",
    "WignerRows",
    "ZeroProbabilityError",
    "added_factor",
    "collapse",
    "compare_gates",
    "default_grid",
    "fidelity",
    "fidelity_cat",
    "fidelity_coh",
    "fidelity_mix",
    "fit_squeezing",
    "fourier_transform",
    "hermite_function",
    "hermite_values",
    "linearize",
    "make_cat",
    "make_cubic_phase",
    "make_fock",
    "make_vacuum",
    "matched_outcome_ratio",
    "odd_cat_ladder",
    "oscillatory_fourier_factor",
    "overlap",
    "phase_function",
    "probability_density",
    "probability_scan",
    "reference_cat",
    "squeezing_db",
    "squeezing_scan",
    "wigner",
]
