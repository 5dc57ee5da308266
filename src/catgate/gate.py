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
untrimmed oracle.  ``spectral_outcomes`` evaluates a whole set of outcomes at
once: on a fixed input both P(y) and the overlap with a fixed reference are
convolutions in y, which it sums over a k lattice from the resource's
closed-form characteristic function and wavefunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NyquistError, ZeroProbabilityError
from .numerics import SUPPORT_TOL, WaveFunction, _offset_dft
from .states import Resource, require_resource

#: Below this squared norm an outcome is treated as impossible; the collapsed
#: state (and any fidelity) is undefined there.
MIN_COLLAPSE_NORM = 1e-300

#: ``SUPPORT_TOL`` as a decay exponent, for the resources' outcome supports.
_SUPPORT_LOG = -math.log(SUPPORT_TOL)

#: Size of one block of outcomes times lattice points, as complex numbers, in
#: ``spectral_outcomes``; a block's temporaries hold a few such arrays.
_OUTCOME_BLOCK_BYTES = 2 * 2 ** 20

#: Largest chirp phase, in radians, of one chirp-z transform in
#: ``spectral_outcomes``.  The phases' roundoff, eps times their size, is the
#: transform's relative error, here about 5e-13.
_CHIRP_PHASE = 2048.0


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


def _chirp_dft(f: np.ndarray, x0: float, h: float, y0: float, dy: float, m: int) -> np.ndarray:
    """``numerics._offset_dft`` in pieces of b inputs by b outputs, b short
    enough that the chirp phases, up to |dy h| b^2 / 2, stay below
    ``_CHIRP_PHASE``."""
    a, b = abs(dy * h), max(m, f.shape[-1])
    if a * b * b > 2.0 * _CHIRP_PHASE:
        b = max(16, int(math.sqrt(2.0 * _CHIRP_PHASE / a)))
    out = np.zeros(f.shape[:-1] + (m,), dtype=np.complex128)
    for j in range(0, m, b):
        for i in range(0, f.shape[-1], b):
            out[..., j:j + b] += _offset_dft(f[..., i:i + b], x0 + i * h, h, y0 + j * dy, dy,
                                             min(b, m - j))
    return out


def _lattice_sums(terms: np.ndarray, k: np.ndarray, dk: float, ys: np.ndarray) -> np.ndarray:
    """``sum_j terms[:, j] exp(-i k_j y)`` at every outcome y of ys, for the
    lattice k_j = k_0 + j dk.  Outcomes on a uniform axis (to roundoff) go
    through ``_chirp_dft``, which takes the step dk itself: k_1 - k_0 carries
    the roundoff of k_0, and the transform multiplies that error by j y.  Other
    outcomes are direct sums, a fixed-byte block at a time."""
    step = (ys[-1] - ys[0]) / max(ys.size - 1, 1)
    axis = ys[0] + step * np.arange(ys.size)
    if step != 0.0 and np.max(np.abs(ys - axis)) <= 16 * np.finfo(float).eps * np.max(np.abs(ys)):
        return _chirp_dft(terms, k[0], dk, ys[0], step, ys.size)
    block = max(1, _OUTCOME_BLOCK_BYTES // (16 * k.size))
    return np.concatenate([terms @ np.exp(-1j * np.outer(k, ys[i:i + block]))
                           for i in range(0, ys.size, block)], axis=1)


def _spectral_terms(
    psi_in: WaveFunction,
    resource: Resource,
    reference: WaveFunction | None,
) -> tuple[np.ndarray, float, np.ndarray, tuple[float, float]]:
    """The lattice k and its step, the terms of the outcome sums on it (row 0
    for P, row 1 for A with a reference) and the outcome support (see
    ``spectral_outcomes``)."""
    grid = psi_in.grid
    h = grid.spacing
    live = psi_in.support()
    if live.stop == live.start:
        raise ZeroProbabilityError(
            f"a zero input state has vanishing probability density for {resource!r}"
        )
    x0 = grid.points[live.start]
    u_lo, u_hi = require_resource(resource).support(_SUPPORT_LOG)
    support = (x0 + u_lo, grid.points[live.stop - 1] + u_hi)
    dk = 2.0 * math.pi / (support[1] - support[0])

    rows = [np.abs(psi_in.values) ** 2]
    if reference is not None:
        if reference.grid != grid:
            raise GridMismatchError("the reference must live on the input's grid")
        rows.append(np.conj(reference.values) * psi_in.values)
    rows = np.array(rows, dtype=np.complex128) * h
    rows[:, [0, -1]] *= 0.5  # trapezoid end points
    rows = rows[:, live]  # nothing outside the input's support
    n = rows.shape[1]

    def integrands(transforms: np.ndarray, k: np.ndarray) -> np.ndarray:
        """chi_in chi_res and g psi_res at k, from the rows' transforms there."""
        chi_res, psi_res = resource.transforms(k)
        transforms[0] *= chi_res
        if reference is not None:
            transforms[1] *= psi_res
        return transforms

    # the window, read off the grid's own FFT lattice on [-pi/h, pi/h), where
    # only the sizes matter; sizes are relative to each row's 1-norm, which
    # bounds its transform and sets the scale of the transform's roundoff
    nyquist = math.pi / h
    k_grid = np.fft.fftshift(np.fft.fftfreq(n, h / (2.0 * math.pi)))
    size = np.abs(integrands(np.fft.fftshift(np.fft.ifft(rows), axes=-1) * n, k_grid))
    size /= np.sum(np.abs(rows), axis=1, keepdims=True)
    # at -pi/h itself the two aliases of chi_in can cancel, so look one node in too
    edge = float(np.max(size[:, [0, 1, -1]]))
    if edge > SUPPORT_TOL:
        raise NyquistError(
            f"spectral outcome integrand is {edge:.2e} of its bound at the grid's "
            f"Nyquist limit {nyquist:.3g}; the grid is too coarse for {resource!r}"
        )
    window = np.max(np.abs(k_grid[np.any(size > SUPPORT_TOL, axis=0)])) + 2.0 * nyquist / n
    half = math.ceil(window / dk)
    k = dk * np.arange(-half, half + 1)
    # the transforms at k = -(half dk - j dk)
    terms = integrands(_chirp_dft(rows, x0, h, half * dk, -dk, k.size), k)
    terms[0] *= dk / (2.0 * math.pi)
    terms[1:] *= dk / math.sqrt(2.0 * math.pi)
    return k, dk, terms, support


def spectral_outcomes(
    psi_in: WaveFunction,
    resource: Resource,
    y_values,
    reference: WaveFunction | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Probability density P(y) over a set of outcomes, and with a
    ``reference`` the fidelity |<reference|psi_out(y)>|^2, all at once.

    On a fixed input both are convolutions in y:

        P(y) = (1/2 pi) integral dk exp(-i k y) chi_in(k) chi_res(k),
        A(y) = <reference|psi_in F(y - .)>
             = (2 pi)^(-1/2) integral dt exp(-i y t) psi_res(t) g(t),

    with chi_in(k) = integral |psi_in|^2 exp(i k x) dx and
    g(t) = integral conj(reference) psi_in exp(i x t) dx, both trapezoid sums
    on the grid (one chirp-z transform for both), and the fidelity is
    |A|^2 / P.  chi_res and psi_res are closed forms
    (``Resource.transforms``).

    Numerical choices, all derived:

    * the lattice k_j = j dk has dk = 2 pi / span, and the period ``span`` is
      the outcome support: the input's measured support plus the resource's
      closed-form one (``Resource.support``).  Outcomes outside it get
      P = 0: there P is below the amplitude tolerance squared;
    * the window |k| <= K is where both integrands fall below
      ``SUPPORT_TOL`` of their bound, the 1-norm of what is transformed,
      read off the grid's own FFT lattice, which ends at the Nyquist limit
      pi/h.  An integrand that has not decayed there aliases in the direct
      sum as well, and raises ``NyquistError``;
    * outcomes are taken in blocks of a fixed size.  A block of equally
      spaced outcomes goes through chirp-z transforms (``_chirp_dft``); any
      other block is a direct sum over the window, in fixed-byte pieces.

    The values agree with ``probability_density`` and ``collapse`` to
    roundoff, about 1e-13.  P is never negative.  A zero input, or a fidelity
    asked for at an outcome whose P is at the sums' roundoff floor, raises
    ``ZeroProbabilityError``, as ``collapse`` does.  Returns (P, fidelity),
    the latter None without a reference.
    """
    y_values = np.asarray(y_values, dtype=np.float64)
    if y_values.ndim != 1:
        raise ValueError("y_values must be a 1-D set of outcomes")
    k, dk, terms, (y_lo, y_hi) = _spectral_terms(psi_in, resource, reference)
    # the sums' roundoff stays below 1e-13 of sum |terms| on the default grid
    floor = 1e-12 * float(np.sum(np.abs(terms[0])))
    probability = np.zeros(y_values.size)
    fidelity = None if reference is None else np.zeros(y_values.size)
    block = max(_OUTCOME_BLOCK_BYTES // (16 * len(terms)), k.size)
    for start in range(0, y_values.size, block):
        ys = y_values[start:start + block]
        sums = _lattice_sums(terms, k, dk, ys)
        p = np.where((ys >= y_lo) & (ys <= y_hi), np.maximum(sums[0].real, 0.0), 0.0)
        probability[start:start + block] = p
        if reference is not None:
            if np.any(p <= floor):
                y_m = float(ys[np.argmax(p <= floor)])
                raise ZeroProbabilityError(
                    f"outcome y_m={y_m} has vanishing probability density for {resource!r}"
                )
            fidelity[start:start + block] = np.minimum(np.abs(sums[1]) ** 2 / p, 1.0)
    return probability, fidelity


def probability_scan(psi_in: WaveFunction, resource: Resource, y_values) -> np.ndarray:
    """Probability density over a set of outcomes, by ``spectral_outcomes``.

    Returns an array of shape (len(y_values), 2) with columns (y_m, P).
    Results are assembled in input order.
    """
    y_values = np.asarray(y_values, dtype=np.float64)
    return np.column_stack([y_values, spectral_outcomes(psi_in, resource, y_values)[0]])
