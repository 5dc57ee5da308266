"""Output-state diagnostics: Wigner functions on a phase-space grid and the
three fidelity measures used to grade the gates (best-phase reference, fixed
even/odd cat reference, and the acceptance-window-averaged mixture)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gate
from .errors import GridSupportError
from .numerics import BLOCK_BYTES, SUPPORT_LOG, Grid, WaveFunction, _offset_dft
from .numerics import default_grid, overlap
from .semiclassical import reference_cat
from .states import FockResource, make_vacuum


@dataclass
class WignerGrid:
    """Real phase-space quasi-probability on an (x, y) product grid.

    ``imag_residue`` records the largest imaginary part discarded when the
    complex transform was truncated to its real part.  W is real in exact
    arithmetic, so this is the chirp-z FFT's roundoff, about 1e-14 for a
    normalized state.  The transform runs on the state's support only: rows
    whose x lies outside it are exactly 0 and add nothing to the residue.
    """

    x_axis: Grid
    y_axis: Grid
    values: np.ndarray
    imag_residue: float = 0.0

    def normalization(self) -> float:
        inner = np.trapezoid(self.values, dx=self.y_axis.spacing, axis=1)
        return float(np.trapezoid(inner, dx=self.x_axis.spacing))

    def position_marginal(self) -> np.ndarray:
        """integral W dy, one value per x-axis node."""
        return np.trapezoid(self.values, dx=self.y_axis.spacing, axis=1)

    def momentum_marginal(self) -> np.ndarray:
        """integral W dx, one value per y-axis node."""
        return np.trapezoid(self.values, dx=self.x_axis.spacing, axis=0)


def _axis_indices(psi_grid: Grid, axis: Grid) -> np.ndarray:
    """Indices of the axis nodes on the wavefunction grid; the x output axis
    must lie on grid nodes so the z-products need no interpolation."""
    psi_grid.require_coverage(axis.x_min, axis.x_max, "wigner output axis")
    pos = (np.asarray(axis.points) - psi_grid.x_min) / psi_grid.spacing
    idx = np.rint(pos).astype(int)
    if np.max(np.abs(pos - idx)) > 1e-6:
        raise GridSupportError("wigner x-axis nodes must coincide with wavefunction grid nodes")
    return idx


def default_wigner_axes(grid: Grid, stride: int = 8) -> tuple[Grid, Grid]:
    """Phase-space axes obtained by striding the wavefunction grid."""
    pts = grid.points[::stride]
    axis = Grid(float(pts[0]), float(pts[-1]), len(pts))
    return axis, axis


def wigner(psi: WaveFunction, x_axis: Grid | None = None, y_axis: Grid | None = None) -> WignerGrid:
    """Wigner function W(x, y) = (1/pi) integral dz conj(psi)(x+z) psi(x-z)
    exp(2 i y z).

    The z integral runs over the state's support (``WaveFunction.support``,
    L nodes), outside which psi is below ``SUPPORT_TOL`` of its peak and is
    taken as 0: the symmetric lattice of offsets z = k h (the state vanishes
    at the support's edge, so the trapezoid sum is spectrally accurate).  A
    row whose x lies outside the support has no nonzero product and is
    exactly 0 without a transform.  The row at support node i (counted from
    0) has products only for |k| <= min(i, L-1-i), its reach: beyond it
    x + z or x - z leaves the support.  Since exp(2 i y z) = exp(-i y (-2z)),
    every other x row is an offset DFT of the 2K+1 products at the points
    -2z, |k| <= K, which the chirp-z transform ``numerics._offset_dft``
    evaluates on any y axis, on or off the lattice.  Rows go through it
    sorted by reach, in blocks of a fixed byte size, one batched FFT pass per
    block whose K is its largest reach, so the working memory is a few MiB
    whatever the axis sizes (until a single row outgrows the block).  The
    values agree with the direct sum over the full grid to FFT roundoff,
    about 1e-13.
    """
    grid = psi.grid
    if x_axis is None or y_axis is None:
        xa, ya = default_wigner_axes(grid)
        x_axis = x_axis or xa
        y_axis = y_axis or ya
    idx = _axis_indices(grid, x_axis)
    live = psi.support()
    n, h, m = live.stop - live.start, grid.spacing, y_axis.n_points
    values = np.zeros((len(idx), m))
    rows = np.flatnonzero((idx >= live.start) & (idx < live.stop))
    if rows.size == 0:
        return WignerGrid(x_axis=x_axis, y_axis=y_axis, values=values)
    padded = np.zeros(3 * n, dtype=np.complex128)
    padded[n:2 * n] = psi.values[live]
    # row i of the support (i counted from its start) has products only for
    # |z| <= reach * h; sorted by reach, a block's rows share a short lattice
    offset = idx[rows] - live.start
    reach = np.minimum(offset, n - 1 - offset)
    order = np.argsort(reach, kind="stable")
    rows, offset, reach = rows[order], offset[order], reach[order]
    block = max(1, BLOCK_BYTES // (16 * (2 * n + m)))
    imag_residue = 0.0
    for start in range(0, rows.size, block):
        chunk = slice(start, start + block)
        k = int(reach[chunk][-1])
        # psi(x_i + z) for z = -k h .. k h, and reversed psi(x_i - z)
        plus = padded[(n - k + offset[chunk])[:, None] + np.arange(2 * k + 1)]
        products = np.conj(plus) * plus[:, ::-1]
        transform = _offset_dft(products, 2.0 * k * h, -2.0 * h,
                                y_axis.x_min, y_axis.spacing, m)
        transform *= h / np.pi
        imag_residue = max(imag_residue, float(np.max(np.abs(transform.imag))))
        values[rows[chunk]] = transform.real
    return WignerGrid(x_axis=x_axis, y_axis=y_axis, values=values, imag_residue=imag_residue)


def fidelity(a: WaveFunction, b: WaveFunction) -> float:
    """Squared overlap of two normalized pure states; insensitive to the
    global phase of either argument."""
    value = abs(overlap(a, b)) ** 2
    return min(float(value), 1.0)


def fidelity_coh(psi_out: WaveFunction, n: int, y_m: float) -> float:
    """Fidelity against the linearized reference whose phase theta tracks the
    measurement outcome (the best-matching coherent superposition), for one
    collapsed state.  It is the oracle of the batched path,
    ``gate.grade_outcomes`` with a ``BestPhaseCat`` reference, which grades a
    whole outcome scan without collapsing."""
    return fidelity(psi_out, reference_cat(n, y_m, psi_out.grid))


def fidelity_cat(psi_out: WaveFunction, n: int) -> float:
    """Fidelity against the fixed even/odd cat reference (the y_m = 0 target);
    coincides with fidelity_coh at y_m = 0."""
    return fidelity(psi_out, reference_cat(n, 0.0, psi_out.grid))


@dataclass(frozen=True)
class AcceptanceWindow:
    """Window of accepted outcomes [-d/2, d/2]; ``fidelity_mix`` derives the
    order of its quadrature from the width and the resource."""

    d: float

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise ValueError("window width d must be positive")


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], read-only since every caller shares them;
    ``fidelity_mix``'s window check keeps the orders, and the cache, below 250."""
    rule = np.polynomial.legendre.leggauss(order)
    for array in rule:
        array.setflags(write=False)
    return rule


def fidelity_mix(
    n: int,
    window: AcceptanceWindow,
    psi_in: WaveFunction | None = None,
) -> tuple[float, float]:
    """Average cat fidelity of the mixed state obtained by accepting all
    outcomes in the window, weighted by their probability density:

        F_mix = (1/P_mix) integral P(y) F_cat(y) dy,
        P_mix = integral P(y) dy,

    both by one Gauss-Legendre rule, at whose nodes ``gate.grade_outcomes``
    evaluates P and F_cat in one pass.  P(y) = (|psi_in|^2 * |F|^2)(y) and
    A(y) = (conj(ref) psi_in * F)(y) are convolutions with the resource
    factor F, whose spectrum is psi_res, so P and |A|^2 = P F_cat have a band
    of at most 2 B_F in y, B_F = ``FockResource(n).band(SUPPORT_LOG)``,
    whatever the input.  An N-node Gauss-Legendre rule is exact to degree
    2N - 1, and converges once 2N exceeds that band times the half-width d/2
    (Trefethen, SIAM Rev. 50 (2008) 67), so N = ceil(B_F d / 2) + 16; up to
    n = 64, 5 of the 16 extra nodes sufficed for 1e-13.  Returns (F_mix, P_mix).
    """
    resource = FockResource(n)
    if window.d > 2.0 * resource.copy_shift(0.0):
        raise ValueError(
            f"window d={window.d} exceeds the cat regime width 2*sqrt(2n+1)"
        )
    if psi_in is None:
        psi_in = make_vacuum(default_grid())
    reference = reference_cat(n, 0.0, psi_in.grid)
    half = 0.5 * window.d
    order = math.ceil(resource.band(SUPPORT_LOG) * half) + 16
    nodes, weights = _gauss_legendre(order)
    ws = half * weights
    densities, fidelities = gate.grade_outcomes(psi_in, resource, half * nodes, reference)
    p_mix = float(np.sum(ws * densities))
    f_mix = float(np.sum(ws * densities * fidelities) / p_mix)
    return f_mix, p_mix
