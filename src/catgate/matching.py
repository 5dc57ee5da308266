"""Parameter matching between the two gates: the discrete ladder of cubic
operating points that realize an odd cat with the Fock-gate copy spacing, the
squeezing fits against a probability or infidelity target, and side-by-side
gate comparison reports."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .analysis import WignerGrid, wigner
from .cubic import SQUEEZING_SWEEP, CubicGateConfig
from .errors import ConvergenceError, FitRangeError
from .gate import collapse, grade_outcomes
from .numerics import (
    _AIRY_RULES,
    BLOCK_BYTES,
    MIN_SQUEEZING,
    Grid,
    _airy_ai,
    _airy_argument,
    default_grid,
    validate_cubic_params,
)
from .semiclassical import REFERENCE_N, reference_cat
from .states import FockResource, make_vacuum


def matched_outcome_ratio(reference_n: int = REFERENCE_N) -> float:
    """Ratio y_m / gamma that keeps the cubic-gate copy spacing equal to the
    Fock-gate spacing sqrt(2n+1):  sqrt(y_m/(3 gamma)) = sqrt(2n+1) gives
    y_m = 3 (2n+1) gamma, from the exact integer 2n+1."""
    return 3.0 * FockResource(reference_n).turning_square


#: How close a fit must come to its target to count as converged, per target kind.
_TARGET_TOLERANCE = {"probability": 1e-3, "infidelity": 1e-4}


def _roots(f, scan, tol: float):
    """The roots of ``f`` along ``scan``, lazy ``(x, f(x))`` pairs in
    increasing x, in order, each with the bisection steps it took.  ``f`` is
    called only at bisection midpoints, and no pair past the last root taken
    is drawn.  A node where ``f`` is exactly 0 is a root; a sign change between
    consecutive nodes is bisected to a bracket of width ``tol``, or 200 steps."""
    x_prev, f_prev = None, 0.0
    for x, f_x in scan:
        if f_x == 0.0:
            yield x, 0
        elif np.sign(f_x) * np.sign(f_prev) < 0:
            lo, hi, f_lo = x_prev, x, f_prev
            iterations = 0
            while hi - lo > tol and iterations < 200:
                mid = 0.5 * (lo + hi)
                f_mid = f(mid)
                if f_mid == 0.0:
                    lo = hi = mid
                elif np.sign(f_mid) == np.sign(f_lo):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
                iterations += 1
            yield 0.5 * (lo + hi), iterations
        x_prev, f_prev = x, f_x


#: Odd-cat operating points the ladder search can list.
LADDER_ENTRIES = 9


def ladder_entries(count: int) -> int:
    """``count`` if the ladder has that many entries, else ValueError."""
    if not 1 <= count <= LADDER_ENTRIES:
        raise ValueError(f"the ladder has entries 1 to {LADDER_ENTRIES}, got {count}")
    return count


def _node_residual(y_m: np.ndarray, s: float, ratio: float) -> np.ndarray:
    """The sign and the zeros of the collapsed ancilla factor at the output
    symmetry point x = 0, for a 1-D array of y_m in one kernel call; each
    value does not depend on the array it comes in.

    For a centered vacuum input the output is an odd cat exactly when this
    amplitude vanishes: the two copies then interfere with a node at x = 0.
    The closed-form factor is a positive prefactor times Ai(z) (see
    ``oscillatory_fourier_factor``), and the root search reads only signs and
    exact zeros, so Ai(z) of the factor's own z stands in for it.  The
    caller checks (gamma, s).
    """
    return _airy_ai(_airy_argument(y_m / ratio, s, y_m))


def _scan(start: float, stop: float, step: float, limit: float):
    """start, start + step, ... up to ``stop`` and at most ``limit``."""
    y = start
    while y <= stop + 1e-12 and y <= limit:
        yield y
        y += step


#: Scan nodes in the first kernel call of the ladder search.  Each later call
#: takes twice as many, up to ``_LADDER_BLOCK``, whose Airy node sums hold
#: ``BLOCK_BYTES`` at the largest node count however fine the scan.  So the
#: scan stops soon after the last root it needs: ``odd_cat_ladder(2)``
#: evaluates 16 + 32 of the default scan's 251 nodes.
_LADDER_FIRST_BLOCK = 16
_LADDER_BLOCK = BLOCK_BYTES // (16 * max(count for _, count in _AIRY_RULES))


def odd_cat_ladder(
    k_max: int,
    s: float = MIN_SQUEEZING,
    reference_n: int = REFERENCE_N,
    scan_start: float = 0.5,
    scan_stop: float = 13.0,
    scan_step: float = 0.05,
) -> list[tuple[float, float]]:
    """Successive cubic-gate operating points (y_m, gamma) along the
    matched-spacing line y_m = 3(2n+1) gamma that produce an odd cat.

    Scans the line for sign changes of the node residual, up to ``scan_stop``
    and no further than gamma = 1, and refines each root by bisection to a
    y_m bracket of 1e-4: one kernel call per block of scan nodes, the blocks
    doubling from ``_LADDER_FIRST_BLOCK`` up to ``_LADDER_BLOCK``, and one per
    bisection step.  s and the scan are checked first.  Entries are returned
    in increasing y_m order.
    """
    ladder_entries(k_max)
    ratio = matched_outcome_ratio(reference_n)
    if not scan_step > 0:
        raise ValueError(f"the scan step must be positive, got {scan_step}")
    validate_cubic_params(min(scan_start / ratio, 1.0), s)  # gamma rises from here to <= 1
    nodes = _scan(scan_start, scan_stop, scan_step, ratio)

    def scan():
        size = _LADDER_FIRST_BLOCK
        while (block := np.fromiter(islice(nodes, size), float)).size:
            yield from zip(block.tolist(), _node_residual(block, s, ratio).tolist())
            size = min(2 * size, _LADDER_BLOCK)

    roots = list(islice(_roots(lambda y: _node_residual(np.array([y]), s, ratio)[0],
                               scan(), 1e-4), k_max))
    if len(roots) < k_max:
        raise ConvergenceError(f"found only {len(roots)} odd-cat points in "
                               f"[{scan_start}, {min(scan_stop, ratio)}], needed {k_max}")
    return [(y_k, y_k / ratio) for y_k, _ in roots]


@dataclass
class MatchReport:
    """Result of fitting the ancilla squeezing against a target value."""

    fitted: CubicGateConfig
    achieved_probability: float
    achieved_infidelity: float
    iterations: int
    converged: bool
    tolerance: float


def fit_squeezing(
    gamma: float,
    y_m: float,
    target: str,
    value: float,
    grid: Grid | None = None,
    reference_n: int = REFERENCE_N,
) -> MatchReport:
    """Bisection on the squeezing factor so the cubic gate meets a probability
    or infidelity target at fixed (gamma, y_m).

    The ``SQUEEZING_SWEEP`` nodes are scanned from strong squeezing upward and
    the first bracket where the curve crosses the target is bisected to a
    width of 1e-3.  Deterministic: repeated runs return identical s.
    """
    if target not in _TARGET_TOLERANCE:
        raise ValueError(f"target must be 'probability' or 'infidelity', got {target!r}")
    grid = grid or default_grid()
    psi_in = make_vacuum(grid)
    reference = reference_cat(reference_n, 0.0, grid)
    curve: list[float] = []  # every value evaluated, for the out-of-range message

    def point(s: float) -> tuple[CubicGateConfig, dict[str, float]]:
        cfg = CubicGateConfig(gamma, y_m, float(s))
        p, f = grade_outcomes(psi_in, cfg.resource, [cfg.y_m], reference)
        return cfg, {"probability": float(p[0]), "infidelity": 1.0 - float(f[0])}

    def residual(s: float) -> float:
        curve.append(point(s)[1][target])
        return curve[-1] - value

    lo, hi, count = SQUEEZING_SWEEP
    scan = ((s, residual(s)) for s in np.linspace(lo, hi, count))
    root = next(_roots(residual, scan, 1e-3), None)
    if root is None:
        raise FitRangeError(
            f"{target} target {value} not reached on s in [{lo}, {hi}] "
            f"(curve spans [{min(curve):.4g}, {max(curve):.4g}])"
        )
    s_fit, iterations = root
    fitted, achieved = point(s_fit)
    return MatchReport(
        fitted=fitted,
        achieved_probability=achieved["probability"],
        achieved_infidelity=achieved["infidelity"],
        iterations=iterations,
        converged=abs(achieved[target] - value) <= _TARGET_TOLERANCE[target],
        tolerance=_TARGET_TOLERANCE[target],
    )


@dataclass
class GateSideReport:
    """Diagnostics of one gate at one operating point."""

    label: str
    probability: float
    infidelity: float
    copy_spacing: float  # the resource's copy shift for a centered input
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
    at ``cfg``, both graded against the same even/odd cat reference.  Only
    ``include_wigner`` builds the collapsed states."""
    grid = grid or default_grid()
    psi_in = make_vacuum(grid)
    reference = reference_cat(n, 0.0, grid)

    sides = []
    for label, resource, y_m in (
        (f"fock n={n} y_m=0", FockResource(n), 0.0),
        (f"cubic gamma={cfg.gamma} y_m={cfg.y_m} s={cfg.s}", cfg.resource, cfg.y_m),
    ):
        p, f = grade_outcomes(psi_in, resource, [y_m], reference)
        state = wigner(collapse(psi_in, resource, y_m).psi_out) if include_wigner else None
        sides.append(GateSideReport(label, float(p[0]), 1.0 - float(f[0]),
                                    float(resource.copy_shift(y_m)), state))
    return GateComparison(*sides)
