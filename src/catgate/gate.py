"""The exact gate pipeline: QND entangling of target and ancilla followed by a
homodyne measurement of the ancilla momentum with outcome y_m.

The measurement collapses the target to

    psi_out(x) ~ psi_in(x) * [F psi_res](y_m - x),

where the second factor is the momentum-representation amplitude of the
resource state.  Its squared norm before normalization is the probability
density of observing y_m.

``collapse`` evaluates one outcome directly, on the input's support
(``WaveFunction.support``): outside it psi_in is below ``SUPPORT_TOL`` of its
peak, psi_out is exactly 0 there, and the resource factor is not evaluated.
``probability_density`` evaluates one outcome on the full grid; it is the
untrimmed oracle.  ``Grader`` is the one grader of P(y) and the fidelity, for
any (resource, outcome) pairs, without building a state, and the one place
that checks them.  ``collapse`` is left to the states that are written out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NyquistError, ZeroProbabilityError
from .numerics import AIRY_BLOCK, SUPPORT_TOL, WaveFunction
from .semiclassical import BestPhaseCat
from .states import Resource, require_resource

#: Below this squared norm an outcome is treated as impossible; the collapsed
#: state (and any fidelity) is undefined there.
MIN_COLLAPSE_NORM = 1e-300


@dataclass
class CollapseResult:
    """Normalized output state, and ``norm_N``, the squared norm of the
    unnormalized collapsed state: the probability density of its outcome."""

    psi_out: WaveFunction
    norm_N: float


def _finite_outcomes(y_values) -> np.ndarray:
    """The outcomes as floats; ValueError naming the first that is not finite."""
    y_values = np.asarray(y_values, dtype=np.float64)
    bad = ~np.isfinite(y_values)
    if np.any(bad):
        raise ValueError(f"outcome y_m={y_values[bad].flat[0]} is not finite")
    return y_values


def collapse(psi_in: WaveFunction, resource: Resource, y_m: float) -> CollapseResult:
    """Collapse the target state by a homodyne outcome y_m on the ancilla.
    The resource factor is evaluated on the input's support only."""
    grid = psi_in.grid
    resource = require_resource(resource)
    _finite_outcomes(y_m)
    live = psi_in.support()
    unnormalized = np.zeros(grid.n_points, dtype=np.complex128)
    if live.stop > live.start:
        factor = resource.momentum_factor(y_m - grid.points[live])
        unnormalized[live] = psi_in.values[live] * factor
    norm_n = float(np.trapezoid(np.abs(unnormalized) ** 2, dx=grid.spacing))
    if norm_n < MIN_COLLAPSE_NORM:
        raise ZeroProbabilityError(
            f"outcome y_m={y_m} has vanishing probability density for {resource!r}"
        )
    psi_out = WaveFunction(grid, unnormalized / math.sqrt(norm_n))
    return CollapseResult(psi_out=psi_out, norm_N=norm_n)


def probability_density(psi_in: WaveFunction, resource: Resource, y_m: float) -> float:
    """Probability density of the outcome y_m,
    ``integral dx |psi_in(x)|^2 |[F psi_res](y_m - x)|^2``, on the full grid:
    the untrimmed oracle of ``collapse``'s norm."""
    grid = psi_in.grid
    _finite_outcomes(y_m)
    amplitude = require_resource(resource).amplitude(y_m - grid.points)
    integrand = np.abs(psi_in.values) ** 2 * amplitude ** 2
    return float(np.trapezoid(integrand, dx=grid.spacing))


class Grader:
    """The one grader: probability densities P(y) of (resource, outcome)
    pairs, and with a ``reference`` the fidelities
    |<reference|psi_out(y)>|^2 = |A(y)|^2 / P(y), from the two integrals

        P(y) = integral dx |psi_in(x)|^2 |[F psi_res](y - x)|^2,
        A(y) = integral dx conj(reference)(x) psi_in(x) [F psi_res](y - x).

    Both integrands are analytic, and their spectra are bounded: by the
    band B_in of the input rows |psi_in|^2 and conj(reference) psi_in, plus
    twice the band B_F of F, whose spectrum is psi_res itself
    (``Resource.band``).  The trapezoid rule with a step that resolves that
    band is exponentially accurate (Trefethen and Weideman, SIAM Rev. 56
    (2014) 385), so both are the grid's trapezoid sums over every
    ``stride``-th node of the input's support, with
    stride = max(1, floor(2 pi / (h (B_in + 2 B_F)))).  B_in is the highest
    |k| where the rows' FFT on the support exceeds ``SUPPORT_TOL`` of their
    1-norm; rows that have not decayed at the grid's Nyquist limit pi/h
    alias in any grid sum and raise ``NyquistError``.  Rows, band and check
    are computed once (``_grading_plan``), and outcomes go through in blocks
    of a fixed size, so memory does not grow with their number.

    The ``reference`` is None, a fixed state, or a ``BestPhaseCat``, whose
    cat changes with the outcome (the best-phase fidelity); anything else is
    a TypeError.  A best-phase overlap row is the outcome-free envelope
    times psi_in, whose FFT band is widened by sqrt(2n + 1), the largest
    copy spacing p_plus at any outcome; the cat's modulation is evaluated in
    closed form on the strided nodes, block by block, and is normalized in
    closed form.
    An outcome outside the cat domain raises ``LinearizationDomainError``
    before any grading.

    P agrees with ``probability_density`` and ``collapse`` to about 1e-13
    relative wherever it exceeds 1e-20; below that the input's support, cut
    at ``SUPPORT_TOL`` of its peak amplitude, limits the accuracy.  P is never
    negative.  A zero input, or a fidelity asked for at an outcome with
    P < ``MIN_COLLAPSE_NORM``, raises ``ZeroProbabilityError``, as
    ``collapse`` does.
    """

    def __init__(self, psi_in: WaveFunction, reference: WaveFunction | BestPhaseCat | None = None):
        self.x, self.rows, self.band, self.h = _grading_plan(psi_in, reference)
        self.reference = reference

    def grade(self, jobs) -> tuple[np.ndarray, np.ndarray | None]:
        """(P, fidelity) of each outcome of the jobs, in order, the fidelity
        None without a reference.  A job is a resource, else TypeError, and a
        1-D set of its outcomes, each a finite float, else ValueError; every
        job is checked before any is graded, against a ``BestPhaseCat``'s
        domain too.  Each is graded to the bits of a job of its own."""
        jobs = [(require_resource(r), _finite_outcomes(ys)) for r, ys in jobs]
        if any(ys.ndim != 1 for _, ys in jobs):
            raise ValueError("a job's outcomes must be a 1-D set")
        if isinstance(self.reference, BestPhaseCat):
            for _, ys in jobs:
                self.reference.parameters(ys)
        total = sum(ys.size for _, ys in jobs)
        probability = np.empty(total)
        fidelity = None if self.reference is None else np.empty(total)
        for block in self._blocks(jobs):
            pieces = [(ys[:, None] - self.x[::stride]).ravel() for _, ys, stride, _ in block]
            counts = [piece.size for piece in pieces]
            resources = [resource for resource, _, _, _ in block]
            amplitude = type(resources[0]).amplitudes(resources, counts, np.concatenate(pieces))
            for (resource, ys, stride, start), end in zip(block, np.cumsum(counts).tolist()):
                x, weights = self.x[::stride], self.rows[:, ::stride] * stride
                rows = amplitude[end - ys.size * x.size:end].reshape(ys.size, x.size)
                p, f = _grade_block(rows, weights, self.reference, ys, x, resource)
                probability[start:start + ys.size] = p
                if f is not None:
                    fidelity[start:start + ys.size] = f
        return probability, fidelity

    def _blocks(self, jobs):
        """Runs (resource, outcomes, stride, first row) of the jobs' rows, in
        order, in blocks of one resource class and at most ``AIRY_BLOCK``
        nodes, or of one row alone; a job's stride resolves B_in (``band``)
        plus twice its resource's band."""
        block, used, start = [], 0, 0
        for resource, ys in jobs:
            stride = max(1, int(2.0 * math.pi / (self.h * (self.band + 2.0 * resource.band()))))
            size, a = self.x[::stride].size, 0
            while a < ys.size:
                if block and (used + size > AIRY_BLOCK
                              or type(resource) is not type(block[0][0])):
                    yield block
                    block, used = [], 0
                b = min(ys.size, a + max(1, (AIRY_BLOCK - used) // size))
                block.append((resource, ys[a:b], stride, start + a))
                used, a = used + (b - a) * size, b
            start += ys.size
        if block:
            yield block


def _grading_plan(psi_in: WaveFunction, reference: WaveFunction | BestPhaseCat | None):
    """A ``Grader``'s input support nodes, the trapezoid-weighted rows on them,
    their band B_in, and the grid step.  B_in is the larger of the rows' FFT
    edges, a best-phase overlap row's widened by the cat's ``band()``, plus
    one lattice step."""
    grid = psi_in.grid
    rows = [np.abs(psi_in.values) ** 2]
    if isinstance(reference, BestPhaseCat):
        rows.append(reference.envelope(grid.points) * psi_in.values)
    elif isinstance(reference, WaveFunction):
        if reference.grid != grid:
            raise GridMismatchError("the reference must live on the input's grid")
        rows.append(np.conj(reference.values) * psi_in.values)
    elif reference is not None:
        raise TypeError(f"unsupported reference {reference!r}")
    live = psi_in.support()
    if live.stop == live.start:
        raise ZeroProbabilityError("a zero input state has vanishing probability density")
    h = grid.spacing
    rows = np.array(rows, dtype=np.complex128) * h
    rows[:, [0, -1]] *= 0.5  # trapezoid end points
    rows = rows[:, live]  # nothing outside the input's support
    n = rows.shape[1]

    # the rows' band, read off the grid's own FFT lattice on [-pi/h, pi/h);
    # sizes are relative to each row's 1-norm, which bounds its transform
    k_grid = np.fft.fftshift(np.fft.fftfreq(n, h / (2.0 * math.pi)))
    size = np.abs(np.fft.fftshift(np.fft.fft(rows), axes=-1))
    size /= np.sum(np.abs(rows), axis=1, keepdims=True)
    # at -pi/h itself the two aliases of a row can cancel, so look one node in too
    edge = float(np.max(size[:, [0, min(1, n - 1), -1]]))
    if edge > SUPPORT_TOL:
        raise NyquistError(
            f"outcome integrand is {edge:.2e} of its bound at the grid's Nyquist "
            f"limit {math.pi / h:.3g}; the grid is too coarse for this input"
        )
    # a row's edge lies within one lattice step past its last node above it
    edges = [float(np.max(np.abs(k_grid[above]), initial=0.0)) for above in size > SUPPORT_TOL]
    shift = reference.band() if isinstance(reference, BestPhaseCat) else 0.0
    band = max(edge + s for edge, s in zip(edges, (0.0, shift)))
    return grid.points[live], rows, band + 2.0 * math.pi / (n * h), h


def _grade_block(f, weights, reference, ys, x, resource) -> tuple[np.ndarray, np.ndarray | None]:
    """P, and with a reference the fidelity, of the outcomes ``ys`` from
    their resource's real amplitudes f, one row per outcome, on the nodes x."""
    # einsum sums in numpy's own loop: a threaded BLAS product of these
    # small blocks stalls whenever a core is busy elsewhere
    p = np.einsum("ij,j->i", f * f, weights[0].real)
    if reference is None:
        return p, None
    if np.any(p < MIN_COLLAPSE_NORM):
        y_m = float(ys[np.argmax(p < MIN_COLLAPSE_NORM)])
        raise ZeroProbabilityError(
            f"outcome y_m={y_m} has vanishing probability density for {resource!r}"
        )
    if isinstance(reference, BestPhaseCat):
        overlap = np.einsum("ij,ij,j->i", f, reference.modulation(ys, x), weights[1])
    else:
        overlap = np.einsum("ij,j->i", f, weights[1])
    return p, np.minimum(np.abs(overlap) ** 2 / p, 1.0)


def probability_scan(psi_in: WaveFunction, resource: Resource, y_values) -> np.ndarray:
    """Probability density over a set of outcomes, by a ``Grader``.

    Returns an array of shape (len(y_values), 2) with columns (y_m, P).
    Results are assembled in input order.
    """
    y_values = np.asarray(y_values, dtype=np.float64)
    return np.column_stack([y_values, Grader(psi_in).grade([(resource, y_values)])[0]])
