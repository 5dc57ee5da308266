"""Output-state diagnostics: Wigner functions on a phase-space grid and the
three fidelity measures used to grade the gates (best-phase reference, fixed
even/odd cat reference, and the acceptance-window-averaged mixture)."""

from __future__ import annotations

import contextvars
import functools
import math
import queue
import threading
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import gate
from .errors import GridSupportError
from .numerics import BLOCK_BYTES, Grid, WaveFunction, _dft_buffer, _offset_dft, overlap
from .semiclassical import reference_cat
from .states import FockResource


@dataclass
class WignerGrid:
    """Real phase-space quasi-probability on an (x, y) product grid, and the
    summary that its ``WignerRows`` pass gathered (see there);
    ``WignerRows.summary`` is that summary alone, with ``values`` None.
    ``imag_residue`` is the largest imaginary part that the transform
    discarded.  W is real in exact arithmetic, so this is the chirp-z FFT's
    roundoff, about 1e-14 for a normalized state; rows outside the state's
    support are exactly 0 and add nothing to it.
    """

    x_axis: Grid
    y_axis: Grid
    values: np.ndarray | None
    imag_residue: float
    min_value: float
    max_value: float
    _position: np.ndarray
    _momentum: np.ndarray

    def normalization(self) -> float:
        """integral W dx dy, the x trapezoid of the position marginal."""
        return float(np.trapezoid(self._position, dx=self.x_axis.spacing))

    def position_marginal(self) -> np.ndarray:
        """integral W dy, one value per x-axis node: each row's y trapezoid."""
        return self._position

    def momentum_marginal(self) -> np.ndarray:
        """integral W dx, one value per y-axis node: the x trapezoid."""
        return self._momentum


def _axis_indices(psi_grid: Grid, axis: Grid) -> np.ndarray:
    """Indices of the axis nodes on the wavefunction grid; the x output axis
    must lie on grid nodes so the z-products need no interpolation."""
    psi_grid.require_coverage(axis.x_min, axis.x_max, "wigner output axis")
    pos = (np.asarray(axis.points) - psi_grid.x_min) / psi_grid.spacing
    idx = np.rint(pos).astype(int)
    if np.max(np.abs(pos - idx)) > 1e-6:
        raise GridSupportError("wigner x-axis nodes must coincide with wavefunction grid nodes")
    return idx


#: Every how many grid nodes the default Wigner axis takes one.
WIGNER_STRIDE = 8


def strided_axis(grid: Grid, stride: int = WIGNER_STRIDE) -> Grid:
    """The axis of every ``stride``-th node of the wavefunction grid."""
    pts = grid.points[::stride]
    return Grid(float(pts[0]), float(pts[-1]), len(pts))


class WignerRows:
    """The Wigner function W(x, y) = (1/pi) integral dz conj(psi)(x+z)
    psi(x-z) exp(2 i y z) on the axes x, by default ``strided_axis(psi.grid)``,
    and y, by default the x axis, as a stream of row blocks.

    Building it checks the axes (``_axis_indices``) and finds the state's
    support; iterating it yields ``(values, imag_residue)`` for consecutive
    blocks of x rows, in x order, each row once: ``values`` is a (rows, M)
    float array that no later block writes into, and ``imag_residue`` the
    largest imaginary part the block discarded.
    A pass also gathers the grid's one summary, with no grid-sized
    temporary: each row's y trapezoid (the position marginal), the x
    trapezoid as a running sum of the rows less half the first and the last
    (the momentum marginal), the least and the largest value and
    ``imag_residue``.  Only a pass that ran to its end leaves it, as
    ``summary``, a ``WignerGrid`` without values: every pass starts by
    resetting it to None.  ``wigner`` collects the rows into a
    ``WignerGrid``; the CLI writes them without holding the grid.

    A pass does its batch work (the gather, the transform and the summary's
    reductions) in one worker thread, one batch ahead of its consumer:
    handing block j over, it asks the worker for block j + 1, so that the
    transform runs while the consumer writes (numpy's FFT and ufunc loops
    release the GIL).  The hand-off holds one item at a time.  The worker
    runs in a copy of the caller's context, ``np.errstate`` included, and
    calls nothing that perfbench's tracer wraps, whose span stack is
    single-threaded.  Its exception reaches the consumer with its own type
    and message.  However the pass ends (at its end, on an error, or
    closed or dropped by its consumer), the worker is stopped and joined
    before the pass's generator returns, so no thread outlives its pass.

    The z integral runs over the support (``WaveFunction.support``, L
    nodes), outside which psi is below ``SUPPORT_TOL`` of its peak and is
    taken as 0: the symmetric lattice of offsets z = k h (the state vanishes
    at the support's edge, so the trapezoid sum is spectrally accurate).  A
    row whose x lies outside the support has no nonzero product: it comes
    as exact zeros, a read-only broadcast that holds no memory.  The row at
    support node i (counted from 0) has products only for |k| <=
    min(i, L-1-i), its reach: beyond it x + z or x - z leaves the support.
    Since exp(2 i y z) = exp(-i y (-2z)), every other row is an offset DFT
    of the 2K+1 products at the points -2z, |k| <= K, which the chirp-z
    transform ``numerics._offset_dft`` evaluates on any y axis, on or off
    the lattice.  K is the largest reach in the row's block when the
    support's rows are sorted by reach and cut into blocks of
    ``BLOCK_BYTES``: a sorted block is one run of rows on either flank of
    the support, and each run goes through the transform in x order, in
    batches of at most a block's rows.  numpy's FFT transforms each row of
    a batch alone, so a row's values depend on its K only, not on its
    batch.  A batch's rows are evenly spaced, so they are a strided slice of
    a sliding window over the padded support, a view; their products are
    built in the transform's one zero-padded buffer
    (``numerics._dft_buffer``), with the operations of a separate products
    array.  So a pass holds two batches' transforms, the one the consumer
    has and the one the worker makes, and its working memory does not grow
    with the axis sizes (until a single row outgrows the block).  The
    values agree with the direct sum over the full grid to FFT roundoff,
    about 1e-13.
    """

    summary: WignerGrid | None = None

    def __init__(self, psi: WaveFunction, x_axis: Grid | None = None,
                 y_axis: Grid | None = None) -> None:
        grid = psi.grid
        self.x_axis = x_axis or strided_axis(grid)
        self.y_axis = y_axis or self.x_axis
        idx = _axis_indices(grid, self.x_axis)
        live = psi.support()
        n, m = live.stop - live.start, self.y_axis.n_points
        self._padded = np.zeros(3 * n, dtype=np.complex128)
        self._padded[n:2 * n] = psi.values[live]
        self._h = grid.spacing
        # the axis rows inside the support are one run of x rows, from first
        first, stop = np.searchsorted(idx, [live.start, live.stop]).tolist()
        self._offset = idx - live.start
        reach = np.minimum(self._offset[first:stop], n - 1 - self._offset[first:stop])
        # each row's K: the largest reach of its block in the reach order
        block = max(1, BLOCK_BYTES // (16 * (2 * n + m)))
        order = np.argsort(reach, kind="stable")
        ends = np.minimum(np.arange(block, reach.size + block, block), reach.size)
        k = np.empty_like(reach)
        k[order] = np.repeat(reach[order][ends - 1], np.diff(ends, prepend=0))
        # runs (first row, stop row, K or None for zeros) in x order, cut
        # into batches of at most a block's rows
        cuts = [first, *(first + np.flatnonzero(np.diff(k)) + 1).tolist(), stop]
        runs = [(a, b, int(k[a - first])) for a, b in zip(cuts, cuts[1:]) if b > a]
        runs = [(0, first, None), *runs, (stop, len(idx), None)]
        self._batches = [(s, min(s + block, b), run_k) for a, b, run_k in runs
                         for s in range(a, b, block)]
        # the axis rows are evenly spaced grid nodes
        self._step = int(idx[1] - idx[0]) if len(idx) > 1 else 1

    def __iter__(self) -> Iterator[tuple[np.ndarray, float]]:
        self.summary = None
        asks, done = queue.SimpleQueue(), queue.SimpleQueue()
        # a daemon, so that a pass left suspended does not hold up the exit
        worker = threading.Thread(target=contextvars.copy_context().run,
                                  args=(self._work, asks, done), daemon=True)
        worker.start()
        try:
            asks.put(True)
            while True:
                item = done.get()
                if isinstance(item, BaseException):
                    raise item
                if isinstance(item, WignerGrid):
                    break
                asks.put(True)  # the worker takes the next batch meanwhile
                yield item
                del item  # a block the consumer let go is freed while it waits
            self.summary = item
        finally:
            asks.put(False)
            worker.join()

    def _work(self, asks: queue.SimpleQueue, done: queue.SimpleQueue) -> None:
        """The worker of a pass: one step of ``_steps`` into ``done`` for
        each True from ``asks``, until a False, the last step or an
        exception, which goes into ``done`` too."""
        steps = self._steps()
        try:
            while asks.get():
                done.put(next(steps))
        except BaseException as exc:
            done.put(exc)

    def _steps(self) -> Iterator[tuple[np.ndarray, float] | WignerGrid]:
        """The batch work of a pass, in x order: each batch's block, reduced
        into the summary, and then the summary."""
        n, h, x, y = len(self._padded) // 3, self._h, self.x_axis, self.y_axis
        position, total, first = [], np.zeros(y.n_points), None
        lo, hi, imag_residue = math.inf, -math.inf, 0.0
        zero_row = np.zeros(y.n_points)
        windows = np.lib.stride_tricks.sliding_window_view
        for a, b, k in self._batches:
            if k is None:
                # the reductions of zeros: zero marginals, 0 into min and
                # max, nothing added to the row sum (which never holds -0.0)
                position.append(np.zeros(b - a))
                first = zero_row if first is None else first
                last = zero_row
                lo, hi = float(np.minimum(lo, 0.0)), float(np.maximum(hi, 0.0))
                yield np.broadcast_to(0.0, (b - a, y.n_points)), 0.0
                continue
            # psi(x_i + z) for z = -k h .. k h, and reversed psi(x_i - z): the
            # batch's rows are evenly spaced, a strided slice of the windows;
            # their products go straight into the transform's buffer
            plus = windows(self._padded, 2 * k + 1)[n - k + self._offset[a]::self._step][:b - a]
            transform = _dft_buffer((b - a,), 2 * k + 1, y.n_points)
            products = transform[:, :2 * k + 1]
            np.conjugate(plus, out=products)
            products *= plus[:, ::-1]
            transform = _offset_dft(transform, 2.0 * k * h, -2.0 * h, y.x_min, y.spacing,
                                    y.n_points, 2 * k + 1)
            transform *= h / np.pi
            values, residue = transform.real, float(np.max(np.abs(transform.imag)))
            position.append(np.trapezoid(values, dx=y.spacing, axis=1))
            total += values.sum(axis=0)
            first = values[0].copy() if first is None else first
            last = values[-1].copy()
            lo, hi = float(np.minimum(lo, values.min())), float(np.maximum(hi, values.max()))
            imag_residue = max(imag_residue, residue)
            yield values, residue
        yield WignerGrid(
            x_axis=x, y_axis=y, values=None, imag_residue=imag_residue, min_value=lo, max_value=hi,
            _position=np.concatenate(position), _momentum=x.spacing * (total - 0.5 * (first + last)))


def wigner(psi: WaveFunction, x_axis: Grid | None = None, y_axis: Grid | None = None) -> WignerGrid:
    """The Wigner function of psi on the axes x and y (defaults as for
    ``WignerRows``), collected from its ``WignerRows`` into one array beside
    the summary of that pass (``WignerRows.summary``).  The transform's
    working memory above the result, by tracemalloc: 1.7 MiB at the default
    axes of the Fock-5 output, 2.1 MiB on 2048 x 2048 axes.  A caller that
    only writes the grid or reads its summary iterates the rows instead."""
    rows = WignerRows(psi, x_axis, y_axis)
    values = np.empty((rows.x_axis.n_points, rows.y_axis.n_points))
    start = 0
    for block, _ in rows:
        values[start:start + len(block)] = block
        start += len(block)
    return replace(rows.summary, values=values)


def fidelity(a: WaveFunction, b: WaveFunction) -> float:
    """Squared overlap of two normalized pure states; insensitive to the
    global phase of either argument."""
    value = abs(overlap(a, b)) ** 2
    return min(float(value), 1.0)


def fidelity_coh(psi_out: WaveFunction, n: int, y_m: float) -> float:
    """Fidelity against the linearized reference whose phase theta tracks the
    measurement outcome (the best-matching coherent superposition), for one
    collapsed state.  It is the oracle of the batched path, a ``gate.Grader``
    with a ``BestPhaseCat`` reference, which grades a whole outcome scan
    without collapsing."""
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

    both by one Gauss-Legendre rule, at whose nodes ``gate.Grader`` evaluates
    P and F_cat in one pass.  P(y) = (|psi_in|^2 * |F|^2)(y) and
    A(y) = (conj(ref) psi_in * F)(y) are convolutions with the resource
    factor F, whose spectrum is psi_res, so P and |A|^2 = P F_cat have a band
    of at most 2 B_F in y, B_F = ``FockResource(n).band()``, whatever the
    input.  An N-node Gauss-Legendre rule is exact to degree 2N - 1, and
    converges once 2N exceeds that band times the half-width d/2 (Trefethen,
    SIAM Rev. 50 (2008) 67), so N = ceil(B_F d / 2) + 16; up to n = 64, 5 of
    the 16 extra nodes sufficed for 1e-13.

    d is one width or a 1-D array of widths, each in [0, 2 sqrt(2n+1)], the
    cat regime.  Every width is checked before any is graded: one outside
    it, NaN included, is a ValueError that names the first such width.  The
    nodes of every width are one job of one ``Grader.grade`` call, and each
    width sums its own slice, so its result does not depend on the others.
    The half-width d/2 cancels in F_mix, which is sum w P F_cat / sum w P,
    and only P_mix = (d/2) sum w P carries it: a width of 1e-320 still
    gives the cat fidelity of its outcomes.  At d = 0 every node is y = 0,
    and the result is the d -> 0 limit: no accepted probability, and the cat
    fidelity of the outcome y = 0.  Returns (F_mix, P_mix): floats for one
    width, arrays for an array, empty for an empty one.
    """
    resource = FockResource(n)
    limit = 2.0 * resource.copy_shift(0.0)
    widths = np.atleast_1d(np.asarray(d, dtype=np.float64))
    outside = widths[~((0.0 <= widths) & (widths <= limit))]
    if outside.size:
        raise ValueError(f"window width d must be in [0, 2*sqrt(2n+1)] = [0, {limit:.6g}], "
                         f"got {outside[0]}")
    if not widths.size:
        return np.empty(0), np.empty(0)
    halves = 0.5 * widths
    band = resource.band()
    rules = [_gauss_legendre(math.ceil(band * half) + 16) for half in halves.tolist()]
    nodes = np.concatenate([half * x for half, (x, _) in zip(halves.tolist(), rules)])
    grader = gate.Grader(psi_in, reference_cat(n, 0.0, psi_in.grid))
    densities, fidelities = grader.grade([(resource, nodes)])
    splits = np.cumsum([weights.size for _, weights in rules])[:-1]
    sums = np.array([(np.sum(weights * p), np.sum(weights * p * f))
                     for (_, weights), p, f in zip(rules, np.split(densities, splits),
                                                     np.split(fidelities, splits))])
    f_mix, p_mix = sums[:, 1] / sums[:, 0], halves * sums[:, 0]
    return (float(f_mix[0]), float(p_mix[0])) if np.ndim(d) == 0 else (f_mix, p_mix)
