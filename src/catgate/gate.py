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
untrimmed oracle.  ``grade_outcomes`` evaluates P(y) and the fidelity with a
fixed reference for a whole set of outcomes without building a state: both
are trapezoid sums over every stride-th support node, the stride derived from
the integrands' closed-form band.  It is the one grader of every operating
point.  ``collapse`` is left to the states that are written out, and to
the best-phase fidelity scan, whose reference changes with the outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NyquistError, ZeroProbabilityError
from .numerics import BLOCK_BYTES, SUPPORT_LOG, SUPPORT_TOL, WaveFunction
from .states import Resource, require_resource

#: Below this squared norm an outcome is treated as impossible; the collapsed
#: state (and any fidelity) is undefined there.
MIN_COLLAPSE_NORM = 1e-300


@dataclass
class CollapseResult:
    """Normalized output state plus the measurement bookkeeping.

    ``norm_N`` is the squared norm of the unnormalized collapsed state and
    equals the probability density of the outcome ``y_m``.
    """

    psi_out: WaveFunction
    norm_N: float
    y_m: float
    resource: Resource


def collapse(psi_in: WaveFunction, resource: Resource, y_m: float) -> CollapseResult:
    """Collapse the target state by a homodyne outcome y_m on the ancilla.
    The resource factor is evaluated on the input's support only."""
    grid = psi_in.grid
    resource = require_resource(resource)
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
    return CollapseResult(psi_out=psi_out, norm_N=norm_n, y_m=y_m, resource=resource)


def probability_density(psi_in: WaveFunction, resource: Resource, y_m: float) -> float:
    """Probability density of the outcome y_m,
    ``integral dx |psi_in(x)|^2 |[F psi_res](y_m - x)|^2``, on the full grid:
    the untrimmed oracle of ``collapse``'s norm."""
    grid = psi_in.grid
    factor = require_resource(resource).momentum_factor(y_m - grid.points)
    integrand = np.abs(psi_in.values) ** 2 * np.abs(factor) ** 2
    return float(np.trapezoid(integrand, dx=grid.spacing))


def grade_outcomes(
    psi_in: WaveFunction,
    resource: Resource,
    y_values,
    reference: WaveFunction | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Probability density P(y) over a set of outcomes, and with a
    ``reference`` the fidelity |<reference|psi_out(y)>|^2 = |A(y)|^2 / P(y),
    from the two integrals

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
    alias in any grid sum and raise ``NyquistError``.  Outcomes go through in
    blocks of a fixed byte size, so memory does not grow with their number.

    P agrees with ``probability_density`` and ``collapse`` to about 1e-13
    relative wherever it exceeds 1e-20; below that the input's support, cut
    at ``SUPPORT_TOL`` of its peak amplitude, limits the accuracy.  P is never
    negative.  A zero input, or a fidelity asked for at an outcome with
    P < ``MIN_COLLAPSE_NORM``, raises ``ZeroProbabilityError``, as
    ``collapse`` does.  Returns (P, fidelity), the latter None without a
    reference.
    """
    grid = psi_in.grid
    resource = require_resource(resource)
    y_values = np.asarray(y_values, dtype=np.float64)
    if y_values.ndim != 1:
        raise ValueError("y_values must be a 1-D set of outcomes")
    live = psi_in.support()
    if live.stop == live.start:
        raise ZeroProbabilityError(
            f"a zero input state has vanishing probability density for {resource!r}"
        )
    h = grid.spacing
    rows = [np.abs(psi_in.values) ** 2]
    if reference is not None:
        if reference.grid != grid:
            raise GridMismatchError("the reference must live on the input's grid")
        rows.append(np.conj(reference.values) * psi_in.values)
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
            f"limit {math.pi / h:.3g}; the grid is too coarse for {resource!r}"
        )
    # the rows' edge lies within one lattice step past their last node above it
    band = np.max(np.abs(k_grid[np.any(size > SUPPORT_TOL, axis=0)])) + 2.0 * math.pi / (n * h)
    band += 2.0 * resource.band(SUPPORT_LOG)
    stride = max(1, int(2.0 * math.pi / (h * band)))
    x = grid.points[live][::stride]
    weights = rows[:, ::stride] * stride

    probability = np.empty(y_values.size)
    fidelity = None if reference is None else np.empty(y_values.size)
    block = max(1, BLOCK_BYTES // (16 * x.size))
    for start in range(0, y_values.size, block):
        ys = y_values[start:start + block]
        u = ys[:, None] - x
        factor = resource.momentum_factor(u.ravel()).reshape(u.shape)
        # einsum sums in numpy's own loop: a threaded BLAS product of these
        # small blocks stalls whenever a core is busy elsewhere
        p = np.einsum("ij,j->i", factor.real ** 2 + factor.imag ** 2, weights[0].real)
        probability[start:start + block] = p
        if reference is not None:
            if np.any(p < MIN_COLLAPSE_NORM):
                y_m = float(ys[np.argmax(p < MIN_COLLAPSE_NORM)])
                raise ZeroProbabilityError(
                    f"outcome y_m={y_m} has vanishing probability density for {resource!r}"
                )
            overlap = np.einsum("ij,j->i", factor, weights[1])
            fidelity[start:start + block] = np.minimum(np.abs(overlap) ** 2 / p, 1.0)
    return probability, fidelity


def probability_scan(psi_in: WaveFunction, resource: Resource, y_values) -> np.ndarray:
    """Probability density over a set of outcomes, by ``grade_outcomes``.

    Returns an array of shape (len(y_values), 2) with columns (y_m, P).
    Results are assembled in input order.
    """
    y_values = np.asarray(y_values, dtype=np.float64)
    return np.column_stack([y_values, grade_outcomes(psi_in, resource, y_values)[0]])
