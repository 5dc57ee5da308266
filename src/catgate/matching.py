"""Parameter matching between the two gates: the discrete ladder of cubic
operating points that realize an odd cat with the Fock-gate copy spacing, the
squeezing fits against a probability or infidelity target, and side-by-side
gate comparison reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gate
from .analysis import WignerGrid, fidelity, fidelity_cat, wigner
from .cubic import CubicGateConfig, cubic_collapse
from .errors import ConvergenceError, FitRangeError
from .numerics import MIN_SQUEEZING, Grid, default_grid, oscillatory_fourier_factor
from .semiclassical import REFERENCE_N, reference_cat
from .states import FockResource, make_vacuum


def matched_outcome_ratio(reference_n: int = REFERENCE_N) -> float:
    """Ratio y_m / gamma that keeps the cubic-gate copy spacing equal to the
    Fock-gate spacing sqrt(2n+1):  sqrt(y_m/(3 gamma)) = sqrt(2n+1) gives
    y_m = 3 (2n+1) gamma."""
    return 3.0 * (2 * reference_n + 1)


def _node_residual(y_m: float, s: float, ratio: float) -> float:
    """Collapsed ancilla factor at the output symmetry point x = 0.

    For a centered vacuum input the output is an odd cat exactly when this
    amplitude vanishes: the two copies then interfere with a node at x = 0.
    The closed-form factor is real (the integrand's imaginary part is odd),
    so the sign changes between consecutive odd-cat points.
    """
    return complex(oscillatory_fourier_factor(y_m / ratio, s, y_m)).real


def odd_cat_ladder(
    k_max: int,
    s: float = MIN_SQUEEZING,
    reference_n: int = REFERENCE_N,
    scan_start: float = 0.5,
    scan_stop: float = 13.0,
    scan_step: float = 0.05,
    refine_tol: float = 1e-4,
) -> list[tuple[float, float]]:
    """Successive cubic-gate operating points (y_m, gamma) along the
    matched-spacing line y_m = 3(2n+1) gamma that produce an odd cat.

    Scans the line for sign changes of the node residual and refines each
    root by bisection to ``refine_tol`` in y_m.  Entries are returned in
    increasing y_m order.
    """
    if not 1 <= k_max <= 9:
        raise ValueError(f"k_max must be in [1, 9], got {k_max}")
    ratio = matched_outcome_ratio(reference_n)
    roots: list[float] = []
    y_prev = scan_start
    r_prev = _node_residual(y_prev, s, ratio)
    y = y_prev + scan_step
    while y <= scan_stop + 1e-12 and len(roots) < k_max:
        r = _node_residual(y, s, ratio)
        if r_prev == 0.0:
            roots.append(y_prev)
        elif np.sign(r) != np.sign(r_prev) and r != 0.0:
            lo, hi, r_lo = y_prev, y, r_prev
            iterations = 0
            while hi - lo > refine_tol and iterations < 200:
                mid = 0.5 * (lo + hi)
                r_mid = _node_residual(mid, s, ratio)
                if r_mid == 0.0:
                    lo = hi = mid
                elif np.sign(r_mid) == np.sign(r_lo):
                    lo, r_lo = mid, r_mid
                else:
                    hi = mid
                iterations += 1
            roots.append(0.5 * (lo + hi))
        y_prev, r_prev = y, r
        y += scan_step
    if len(roots) < k_max:
        raise ConvergenceError(
            f"found only {len(roots)} odd-cat points in [{scan_start}, {scan_stop}], "
            f"needed {k_max}"
        )
    return [(y_k, y_k / ratio) for y_k in roots]


@dataclass
class MatchReport:
    """Result of fitting the ancilla squeezing against a target value."""

    target_kind: str
    target_value: float
    fitted: CubicGateConfig
    achieved_probability: float
    achieved_infidelity: float
    iterations: int
    converged: bool
    tolerance: float


def _curve_value(gamma, y_m, s, kind, psi_in, reference):
    result = cubic_collapse(psi_in, CubicGateConfig(gamma, y_m, s))
    if kind == "probability":
        return result.norm_N, result
    return 1.0 - fidelity(result.psi_out, reference), result


def fit_squeezing(
    gamma: float,
    y_m: float,
    target: str,
    value: float,
    s_range: tuple[float, float] = (MIN_SQUEEZING, 1.0),
    scan_points: int = 39,
    s_tol: float = 1e-3,
    grid: Grid | None = None,
    reference_n: int = REFERENCE_N,
    target_tolerance: float | None = None,
) -> MatchReport:
    """Bisection on the squeezing factor so the cubic gate meets a probability
    or infidelity target at fixed (gamma, y_m).

    The curve is scanned on ``scan_points`` nodes; the first bracket where it
    crosses the target (scanning from strong squeezing upward) is refined by
    bisection to ``s_tol``.  Deterministic: repeated runs return identical s.
    """
    if target not in ("probability", "infidelity"):
        raise ValueError(f"target must be 'probability' or 'infidelity', got {target!r}")
    if target_tolerance is None:
        target_tolerance = 1e-3 if target == "probability" else 1e-4
    grid = grid or default_grid()
    psi_in = make_vacuum(grid)
    reference = reference_cat(reference_n, 0.0, grid)

    s_nodes = np.linspace(s_range[0], s_range[1], scan_points)
    curve = np.array(
        [_curve_value(gamma, y_m, float(s), target, psi_in, reference)[0] for s in s_nodes]
    )
    residual = curve - value
    bracket = None
    for i in range(len(s_nodes) - 1):
        if residual[i] == 0.0:
            bracket = (s_nodes[i], s_nodes[i])
            break
        if residual[i] * residual[i + 1] <= 0.0:
            bracket = (s_nodes[i], s_nodes[i + 1])
            break
    if bracket is None:
        raise FitRangeError(
            f"{target} target {value} not reached on s in "
            f"[{s_range[0]}, {s_range[1]}] (curve spans "
            f"[{curve.min():.4g}, {curve.max():.4g}])"
        )

    lo, hi = bracket
    r_lo = float(_curve_value(gamma, y_m, float(lo), target, psi_in, reference)[0] - value)
    iterations = 0
    while hi - lo > s_tol:
        mid = 0.5 * (lo + hi)
        r_mid = float(_curve_value(gamma, y_m, float(mid), target, psi_in, reference)[0] - value)
        if r_mid == 0.0:
            lo = hi = mid
        elif np.sign(r_mid) == np.sign(r_lo):
            lo, r_lo = mid, r_mid
        else:
            hi = mid
        iterations += 1

    s_fit = 0.5 * (lo + hi)
    fitted = CubicGateConfig(gamma, y_m, float(s_fit))
    result = cubic_collapse(psi_in, fitted)
    achieved_p = result.norm_N
    achieved_inf = 1.0 - fidelity(result.psi_out, reference)
    achieved = achieved_p if target == "probability" else achieved_inf
    return MatchReport(
        target_kind=target,
        target_value=value,
        fitted=fitted,
        achieved_probability=achieved_p,
        achieved_infidelity=achieved_inf,
        iterations=iterations,
        converged=abs(achieved - value) <= target_tolerance,
        tolerance=target_tolerance,
    )


@dataclass
class GateSideReport:
    """Diagnostics of one gate at one operating point."""

    label: str
    probability: float
    infidelity: float
    copy_spacing: float
    wigner: WignerGrid | None = None


@dataclass
class GateComparison:
    fock: GateSideReport
    cubic: GateSideReport

    @property
    def infidelity_ratio(self) -> float:
        return self.cubic.infidelity / self.fock.infidelity


def compare_gates(
    n: int,
    cfg: CubicGateConfig,
    grid: Grid | None = None,
    include_wigner: bool = False,
) -> GateComparison:
    """Side-by-side report of the Fock gate at (n, y_m = 0) and the cubic gate
    at ``cfg``, both graded against the same even/odd cat reference."""
    grid = grid or default_grid()
    psi_in = make_vacuum(grid)

    fock_result = gate.collapse(psi_in, FockResource(n), 0.0)
    fock_side = GateSideReport(
        label=f"fock n={n} y_m=0",
        probability=fock_result.norm_N,
        infidelity=1.0 - fidelity_cat(fock_result.psi_out, n),
        copy_spacing=math.sqrt(2 * n + 1),
        wigner=wigner(fock_result.psi_out) if include_wigner else None,
    )

    cubic_result = cubic_collapse(psi_in, cfg)
    reference = reference_cat(n, 0.0, grid)
    cubic_side = GateSideReport(
        label=f"cubic gamma={cfg.gamma} y_m={cfg.y_m} s={cfg.s}",
        probability=cubic_result.norm_N,
        infidelity=1.0 - fidelity(cubic_result.psi_out, reference),
        copy_spacing=cfg.copy_spacing(),
        wigner=wigner(cubic_result.psi_out) if include_wigner else None,
    )
    return GateComparison(fock=fock_side, cubic=cubic_side)
