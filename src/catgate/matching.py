"""Parameter matching between the two gates: the discrete ladder of cubic
operating points that realize an odd cat with the Fock-gate copy spacing, the
squeezing fits against a probability or infidelity target, and side-by-side
gate comparison reports."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .cubic import SQUEEZING_SWEEP, CubicGateConfig, squeezing_curve
from .errors import ConvergenceError, FitRangeError, ZeroProbabilityError
from .gate import Grader
from .numerics import (
    AIRY_BLOCK,
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


#: Levels of the bisection tree one call of ``_roots``' function covers: 7 midpoints.
_TREE_LEVELS = 3


def _roots(f, scan, tol: float):
    """The roots of ``f`` along ``scan``, lazy ``(x, f(x))`` pairs in
    increasing x, in order, each with the bisection steps it took.  No pair
    past the last root taken is drawn.  A node where ``f`` is exactly 0 is a
    root; a sign change between consecutive nodes is bisected to a bracket
    of width ``tol``, or 200 steps, a midpoint where ``f`` is NaN counting
    as a change of sign.

    ``f`` takes a 1-D array of midpoints and returns their values.  One call
    covers the next ``_TREE_LEVELS`` levels of the bisection tree below the
    bracket, each midpoint ``0.5 * (lo + hi)`` of a bracket still wider than
    ``tol`` within the step cap, and the walk reads the values it passes.
    So a root takes a third as many calls as steps, and, for an ``f`` whose
    value at a point does not depend on the array it comes in, the roots and
    steps of a bisection that calls ``f`` once per step.  A call that raises
    ``ZeroProbabilityError`` is made again for the one midpoint the walk
    needs, so only a midpoint the walk reaches can fail the search."""
    x_prev, f_prev = None, 0.0
    for x, f_x in scan:
        if f_x == 0.0:
            yield x, 0
        elif f_x < 0.0 < f_prev or f_prev < 0.0 < f_x:
            lo, hi, f_lo = x_prev, x, f_prev
            iterations, values = 0, {}
            while hi - lo > tol and iterations < 200:
                mid = 0.5 * (lo + hi)
                if mid not in values:
                    try:
                        values = _tree_values(f, lo, hi, tol, 200 - iterations)
                    except ZeroProbabilityError:
                        values = _tree_values(f, lo, hi, tol, 1)
                f_mid = values[mid]
                if f_mid == 0.0:
                    lo = hi = mid
                elif f_mid < 0.0 if f_lo < 0.0 else f_mid > 0.0:  # NaN is neither
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
                iterations += 1
            yield 0.5 * (lo + hi), iterations
        x_prev, f_prev = x, f_x


def _tree_values(f, lo: float, hi: float, tol: float, steps: int) -> dict:
    """f at the midpoints of the next ``_TREE_LEVELS`` levels below
    [lo, hi], at most ``steps`` of them, in one call: every bracket wider
    than ``tol`` contributes its midpoint, and its two halves go on."""
    nodes, level = [], [(lo, hi)]
    for _ in range(min(_TREE_LEVELS, steps)):
        level = [(a, b) for a, b in level if b - a > tol]
        mids = [0.5 * (a + b) for a, b in level]
        nodes += mids
        level = [half for (a, b), m in zip(level, mids) for half in ((a, m), (m, b))]
    return dict(zip(nodes, f(np.array(nodes)).tolist()))


#: Scan nodes in the first call of ``_block_scan``.  Each later call takes
#: twice as many, up to ``AIRY_BLOCK``, the nodes of one Airy pass, however
#: fine the scan.  So a scan stops soon after the last root it needs:
#: ``odd_cat_ladder(2)`` evaluates 16 + 32 of the default scan's 251 nodes.
_FIRST_BLOCK = 16


def _block_scan(nodes, f):
    """Lazy ``(x, f(x))`` pairs over the iterable ``nodes``, ``f`` called on
    a 1-D array of a block of them, the blocks doubling from
    ``_FIRST_BLOCK`` up to ``AIRY_BLOCK``.  A block whose call raises
    ``ZeroProbabilityError`` is evaluated node by node, so only a node the
    scan reaches can fail it."""
    nodes, size = iter(nodes), _FIRST_BLOCK
    while (block := np.fromiter(islice(nodes, size), float)).size:
        try:
            values = f(block).tolist()
        except ZeroProbabilityError:
            values = (f(block[i:i + 1])[0] for i in range(block.size))
        yield from zip(block.tolist(), values)
        size = min(2 * size, AIRY_BLOCK)


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
    gamma = y_m / ratio
    return _airy_ai(_airy_argument(gamma, s ** 4, (3.0 * gamma) ** (1.0 / 3.0), y_m))


def _scan(start: float, stop: float, step: float, limit: float):
    """start, start + step, ... up to ``stop`` and at most ``limit``."""
    y = start
    while y <= stop + 1e-12 and y <= limit:
        yield y
        y += step


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
    y_m bracket of 1e-4: one kernel call per block of scan nodes
    (``_block_scan``) and one per three bisection steps (``_roots``), so
    ``odd_cat_ladder(2)`` makes calls of 16, 7, 7, 7, 32, 7, 7 and 7 nodes.
    s and the scan are checked first; a step too small to move the scan's
    top node, min(scan_stop, ratio), is refused, since the scan would stall
    at the first node it cannot move.  Entries are returned in increasing
    y_m order.
    """
    ladder_entries(k_max)
    ratio = matched_outcome_ratio(reference_n)
    if not scan_step > 0:
        raise ValueError(f"the scan step must be positive, got {scan_step}")
    top = min(scan_stop, ratio)
    if top + scan_step == top:
        raise ValueError(f"the scan step {scan_step} does not move the scan at y_m = {top}")
    validate_cubic_params(min(scan_start / ratio, 1.0), s)  # gamma rises from here to <= 1
    residual = partial(_node_residual, s=s, ratio=ratio)
    scan = _block_scan(_scan(scan_start, scan_stop, scan_step, ratio), residual)
    roots = list(islice(_roots(residual, scan, 1e-4), k_max))
    if len(roots) < k_max:
        raise ConvergenceError(f"found only {len(roots)} odd-cat points in "
                               f"[{scan_start}, {top}], needed {k_max}")
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
) -> MatchReport:
    """Bisection on the squeezing factor so the cubic gate meets a probability
    or infidelity target at fixed (gamma, y_m), on one ``cubic.squeezing_curve``.

    The ``SQUEEZING_SWEEP`` nodes are scanned from strong squeezing upward and
    the first bracket where the curve crosses the target is bisected to a
    width of 1e-3.  The scan is graded in doubling blocks (``_block_scan``)
    and the bisection three levels at a time (``_roots``), each block or
    tree in one call of the curve; its s is that of one call per point, and
    the achieved values are those of ``squeezing_scan`` at s.  A node that
    cannot be graded fails the fit only if the scan or the bisection reaches
    it.  Deterministic: repeated runs return identical s.
    """
    if target not in _TARGET_TOLERANCE:
        raise ValueError(f"target must be 'probability' or 'infidelity', got {target!r}")
    squeezing = squeezing_curve(gamma, y_m, grid)
    column = ("probability", "infidelity").index(target)  # of the curve's pair
    curve: list[float] = []  # every value evaluated, for the out-of-range message

    def residual(s_values: np.ndarray) -> np.ndarray:
        values = squeezing(s_values)[column]
        curve.extend(values.tolist())
        return values - value

    lo, hi, count = SQUEEZING_SWEEP
    scan = _block_scan(np.linspace(lo, hi, count), residual)
    root = next(_roots(residual, scan, 1e-3), None)
    if root is None:
        raise FitRangeError(
            f"{target} target {value} not reached on s in [{lo}, {hi}] "
            f"(curve spans [{min(curve):.4g}, {max(curve):.4g}])"
        )
    s_fit, iterations = root
    achieved = [float(v[0]) for v in squeezing([s_fit])]
    return MatchReport(
        fitted=CubicGateConfig(gamma, y_m, s_fit),
        achieved_probability=achieved[0],
        achieved_infidelity=achieved[1],
        iterations=iterations,
        converged=abs(achieved[column] - value) <= _TARGET_TOLERANCE[target],
        tolerance=_TARGET_TOLERANCE[target],
    )


@dataclass
class GateSideReport:
    """Diagnostics of one gate at one operating point: graded numbers only,
    no state and no grid (``match compare --wigner`` streams each side's
    Wigner grid from its collapsed state)."""

    label: str
    probability: float
    infidelity: float
    copy_spacing: float  # the resource's copy shift for a centered input


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
) -> GateComparison:
    """Side-by-side report of the Fock gate at (n, y_m = 0) and the cubic gate
    at ``cfg``, both graded against the same even/odd cat reference, in one
    ``Grader`` call and without collapsing either state."""
    grid = grid or default_grid()
    psi_in = make_vacuum(grid)
    sides = ((f"fock n={n} y_m=0", FockResource(n), 0.0),
             (f"cubic gamma={cfg.gamma} y_m={cfg.y_m} s={cfg.s}", cfg.resource, cfg.y_m))
    grader = Grader(psi_in, reference_cat(n, 0.0, grid))
    p, f = grader.grade([(resource, [y_m]) for _, resource, y_m in sides])
    return GateComparison(*(
        GateSideReport(label, float(p_i), 1.0 - float(f_i), float(resource.copy_shift(y_m)))
        for (label, resource, y_m), p_i, f_i in zip(sides, p, f)))
