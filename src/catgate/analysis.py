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
from .numerics import BLOCK_BYTES, SUPPORT_LOG, Grid, WaveFunction, _offset_dft, overlap
from .semiclassical import reference_cat
from .states import FockResource


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
        return float(np.trapezoid(self.position_marginal(), dx=self.x_axis.spacing))

    def position_marginal(self) -> np.ndarray:
        """integral W dy, one value per x-axis node, over blocks of rows so
        that no temporary grows with the table."""
        rows = max(1, BLOCK_BYTES // (8 * self.y_axis.n_points))
        return np.concatenate([np.trapezoid(self.values[i:i + rows], dx=self.y_axis.spacing, axis=1)
                               for i in range(0, len(self.values), rows)])

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


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], read-only since every caller shares them;
    ``fidelity_mix``'s window check keeps the orders, and the cache, below 250."""
    rule = np.polynomial.legendre.leggauss(order)
    for array in rule:
        array.setflags(write=False)
    return rule


def fidelity_mix(n: int, d: float | np.ndarray, psi_in: WaveFunction) -> tuple:
    """Average cat fidelity of the mixed state obtained by accepting every
    outcome in the window [-d/2, d/2], weighted by its probability density:

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
    n = 64, 5 of the 16 extra nodes sufficed for 1e-13.

    d is one width or a 1-D array of widths, each in [0, 2 sqrt(2n+1)], the
    cat regime.  Every width is checked before any is graded: one outside
    it, NaN included, is a ValueError that names the first such width.  At
    d = 0 the result is the d -> 0 limit: no accepted probability, and the
    cat fidelity of the outcome y = 0.  Returns (F_mix, P_mix): floats for
    one width, arrays for an array, each width graded on its own.
    """
    resource = FockResource(n)
    limit = 2.0 * resource.copy_shift(0.0)
    widths = np.atleast_1d(np.asarray(d, dtype=np.float64))
    outside = widths[~((0.0 <= widths) & (widths <= limit))]
    if outside.size:
        raise ValueError(f"window width d must be in [0, 2*sqrt(2n+1)] = [0, {limit:.6g}], "
                         f"got {outside[0]}")
    reference = reference_cat(n, 0.0, psi_in.grid)
    f_mix, p_mix = np.array([_window_mix(psi_in, resource, reference, width)
                             for width in widths.tolist()]).T
    return (float(f_mix[0]), float(p_mix[0])) if np.ndim(d) == 0 else (f_mix, p_mix)


def _window_mix(psi_in: WaveFunction, resource: FockResource, reference: WaveFunction,
                d: float) -> tuple[float, float]:
    """(F_mix, P_mix) of one checked width, for ``fidelity_mix``."""
    if d == 0.0:
        _, fidelities = gate.grade_outcomes(psi_in, resource, np.zeros(1), reference)
        return float(fidelities[0]), 0.0
    half = 0.5 * d
    order = math.ceil(resource.band(SUPPORT_LOG) * half) + 16
    nodes, weights = _gauss_legendre(order)
    ws = half * weights
    densities, fidelities = gate.grade_outcomes(psi_in, resource, half * nodes, reference)
    p_mix = float(np.sum(ws * densities))
    f_mix = float(np.sum(ws * densities * fidelities) / p_mix)
    return f_mix, p_mix
