"""Shared numerical kernels: grids, wavefunctions, Hermite functions, Fourier
transforms in the continuum convention, and the closed-form Airy factor of
the cubic-phase ancilla.

The Airy function of a real argument is evaluated here in numpy
(``_airy_ai``): its Maclaurin series for |z| <= 2, and beyond that a 40-node
generalised Gauss-Laguerre rule for its integral representation (Gil, Segura
and Temme, Numer. Algorithms 30 (2002); DLMF 9.4, 9.7), good to about 1e-13.
The rule's nodes are computed on first use, so only cubic runs pay for them.

Conventions used throughout the package:

* quadratures are dimensionless, ``a = (q + ip)/sqrt(2)``, ``[q, p] = i``;
* the Fourier transform to the momentum representation is
  ``[F psi](y) = (2 pi)^(-1/2) integral dx exp(-i y x) psi(x)``;
* all integrals on grids use the trapezoid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Union

import numpy as np

from .errors import GridMismatchError, GridSupportError

MAX_HERMITE_ORDER = 64

#: Smallest ancilla squeezing factor the cubic resource model supports.
MIN_SQUEEZING = 0.05

#: Above this Airy argument the cubic factor takes the two-term large-z series
#: (exact to ~1e-20 there) with its prefactor folded in.  That form reaches the
#: gamma -> 0 limit, the Gaussian, where the prefactor overflows, Ai(z)
#: exp((2/3) z^(3/2)) goes to 0, and their product would be inf * 0.
AIRY_ASYMPTOTIC_Z = 1e6

#: ``_airy_ai`` sums the Maclaurin series for |z| up to this edge and uses the
#: Gauss-Laguerre rule beyond it; the series needs ``_AIRY_TERMS`` terms there
#: and the rule ``_AIRY_NODES`` nodes, each for about 1e-13.
_AIRY_SERIES_EDGE = 2.0
_AIRY_TERMS = 12
_AIRY_NODES = 40

#: Amplitudes below this fraction of their peak count as zero: they bound a
#: state's support (``WaveFunction.support``), and with it the work of the
#: collapse, the Wigner transform and the outcome grader.
SUPPORT_TOL = 1e-15

#: ``SUPPORT_TOL`` as a decay exponent, for the resources' bands.
SUPPORT_LOG = -math.log(SUPPORT_TOL)

#: Size of one block of work, as complex numbers, in the batched transforms
#: of ``analysis.wigner`` and the outcome sums of ``gate.grade_outcomes``; a
#: block's temporaries hold a few such arrays.  2 MiB blocks were the fastest
#: of 0.5 to 16 MiB on the default 512 x 512 Wigner axes.
BLOCK_BYTES = 2 * 2 ** 20


@dataclass(frozen=True)
class Grid:
    """Uniform coordinate grid, endpoints included."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 16:
            raise ValueError(f"grid needs at least 16 points, got {self.n_points}")
        if not self.x_max > self.x_min:
            raise ValueError("grid requires x_max > x_min")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.linspace(self.x_min, self.x_max, self.n_points)
        pts.setflags(write=False)
        return pts

    @property
    def is_symmetric(self) -> bool:
        return abs(self.x_min + self.x_max) <= 1e-12 * max(abs(self.x_min), abs(self.x_max))

    def covers(self, lo: float, hi: float) -> bool:
        return self.x_min <= lo and self.x_max >= hi

    def require_coverage(self, lo: float, hi: float, what: str) -> None:
        if not self.covers(lo, hi):
            raise GridSupportError(
                f"{what} needs grid coverage of [{lo:.3f}, {hi:.3f}], "
                f"got [{self.x_min}, {self.x_max}]"
            )


def default_grid() -> Grid:
    """Grid used for all Fock-gate work: wide enough for displacements ~3.3
    plus Gaussian tails, fine enough for every oscillation met in practice."""
    return Grid(-16.0, 16.0, 4096)


@dataclass
class WaveFunction:
    """Complex amplitudes on a uniform grid; the universal state carrier."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"amplitude array of shape {values.shape} does not match "
                f"grid with {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("wavefunction amplitudes must be finite")
        self.values = values

    def support(self) -> slice:
        """Index slice from the first to the last node where |psi| exceeds
        ``SUPPORT_TOL`` of its peak; empty for a zero state."""
        amplitude = np.abs(self.values)
        live = np.flatnonzero(amplitude > SUPPORT_TOL * amplitude.max())
        return slice(int(live[0]), int(live[-1]) + 1) if live.size else slice(0, 0)

    def squared_norm(self) -> float:
        return float(np.trapezoid(np.abs(self.values) ** 2, dx=self.grid.spacing))

    def norm(self) -> float:
        return math.sqrt(self.squared_norm())

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero wavefunction")
        return WaveFunction(self.grid, self.values / n)


def overlap(a: WaveFunction, b: WaveFunction) -> complex:
    """Inner product ``integral dx conj(a) b`` by the grid trapezoid rule."""
    if a.grid != b.grid:
        raise GridMismatchError("overlap requires identical grids")
    return complex(np.trapezoid(np.conj(a.values) * b.values, dx=a.grid.spacing))


def hermite_values(n: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite function psi_n(x) = (pi^(1/4) sqrt(2^n n!))^(-1)
    H_n(x) exp(-x^2/2), evaluated pointwise.

    Uses the recurrence on the normalized functions themselves,
    ``psi_{k+1} = x sqrt(2/(k+1)) psi_k - sqrt(k/(k+1)) psi_{k-1}``,
    which stays bounded where the raw polynomials overflow.  An order that
    ``validate_fock_order`` refuses is a ValueError.
    """
    validate_fock_order(n)
    x = np.asarray(x, dtype=np.float64)
    h0 = np.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    if n == 0:
        return h0
    h1 = math.sqrt(2.0) * x * h0
    if n == 1:
        return h1
    prev, cur = h0, h1
    for k in range(1, n):
        prev, cur = cur, x * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1.0)) * prev
    return cur


def hermite_function(n: int, grid: Grid) -> WaveFunction:
    """Number-state wavefunction |n> on a grid, unit norm."""
    validate_fock_order(n)
    support = math.sqrt(2 * n + 1) + 5.0
    grid.require_coverage(-support, support, f"hermite function n={n}")
    psi = WaveFunction(grid, hermite_values(n, grid.points).astype(np.complex128))
    return psi.normalized()


def next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer (no prime factor above 11) not below n: the
    transform lengths the FFT handles fastest."""
    m = max(n, 1)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _offset_dft(f: np.ndarray, x0: float, h: float, y0: float, dy: float, m: int) -> np.ndarray:
    """Evaluate ``X_j = sum_n f_n exp(-i y_j x_n)`` along the last axis of f,
    for ``x_n = x0 + n h`` and ``y_j = y0 + j dy``, ``j = 0 .. m-1``, via
    Bluestein's chirp factorization:
    ``y_j x_n = y_j x0 + y0 h n + dy h (j^2 + n^2 - (j-n)^2)/2``.

    Every leading index of f is an independent transform, all done in one
    batched FFT pass; the result has f's leading shape and a last axis of
    length m.  Exact up to FFT roundoff for any offsets and spacings, of
    either sign.
    """
    n = f.shape[-1]
    a = dy * h
    k = np.arange(n, dtype=np.float64)
    g = f * np.exp(-1j * ((y0 * h) * k + 0.5 * a * k * k))
    nfft = next_fast_len(n + m - 1)
    kk = np.arange(max(n, m), dtype=np.float64)
    chirp = np.exp(0.5j * a * kk * kk)
    kernel = np.zeros(nfft, dtype=np.complex128)
    kernel[:m] = chirp[:m]
    if n > 1:
        kernel[-(n - 1):] = chirp[1:n][::-1]
    spectrum = np.fft.fft(g, nfft, axis=-1)
    spectrum *= np.fft.fft(kernel)
    out = np.fft.ifft(spectrum, axis=-1)[..., :m]
    j = np.arange(m, dtype=np.float64)
    out *= np.exp(-1j * (0.5 * a * j * j + (y0 + dy * j) * x0))
    return out


def fourier_transform(psi: WaveFunction) -> WaveFunction:
    """Continuum Fourier transform ``[F psi](y)`` sampled on psi's own grid.

    The grid must be symmetric about zero.  Parseval holds to ~1e-12 for
    states whose momentum content fits inside the grid window.
    """
    grid = psi.grid
    if not grid.is_symmetric:
        raise ValueError("fourier_transform requires a grid symmetric about 0")
    dx = grid.spacing
    out = _offset_dft(psi.values, grid.x_min, dx, grid.x_min, dx, grid.n_points)
    return WaveFunction(grid, out * dx / math.sqrt(2.0 * math.pi))


def validate_fock_order(n: int) -> None:
    """Range check shared by every Fock entry point, the Hermite kernel included."""
    if not 0 <= n <= MAX_HERMITE_ORDER:
        raise ValueError(f"Fock resource supports n in [0, {MAX_HERMITE_ORDER}], got {n}")


def validate_cubic_params(gamma: float, s: float) -> None:
    """Range check shared by every cubic-resource entry point."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"cubic nonlinearity gamma must be in [0, 1], got {gamma}")
    if not MIN_SQUEEZING <= s <= 1.0:
        raise ValueError(f"squeezing factor s must be in [{MIN_SQUEEZING}, 1], got {s}")


@cache
def _airy_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables of ``_airy_ai``, built on its first call: the Maclaurin
    coefficients of Ai(0) f(z) and Ai'(0) g(z) / z in powers of z^3, and the
    nodes and weights of the generalised Gauss-Laguerre rule with
    alpha = -1/6 (Golub-Welsch: the eigenvalues of its Jacobi matrix, and the
    first components of its eigenvectors), the weights times the integral's
    prefactor 2^(1/6) / (2 sqrt(pi) Gamma(5/6)).  The components come from a
    recurrence: on a 2-vCPU Xeon VM ``eigvalsh`` takes 0.1 ms where ``eigh``
    takes 16 ms."""
    k = np.arange(1, _AIRY_TERMS)
    f = np.cumprod(np.r_[1.0, 1.0 / ((3 * k - 1) * (3 * k))])
    g = np.cumprod(np.r_[1.0, 1.0 / ((3 * k) * (3 * k + 1))])
    f *= 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    g *= -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    alpha = -1.0 / 6.0
    j = np.arange(_AIRY_NODES)
    diagonal = 2.0 * j + alpha + 1.0
    off = np.sqrt(j * (j + alpha))  # off[j] couples rows j - 1 and j; off[0] = 0
    nodes = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off[1:], 1) + np.diag(off[1:], -1))
    # a first component squared is 1 / sum_j p_j(t)^2 over the orthonormal
    # polynomials, which the matrix's rows generate
    p_prev, p = np.zeros(_AIRY_NODES), np.ones(_AIRY_NODES)
    norm = np.ones(_AIRY_NODES)
    for row in range(_AIRY_NODES - 1):
        p_prev, p = p, ((nodes - diagonal[row]) * p - off[row] * p_prev) / off[row + 1]
        norm += p * p
    # mu_0 = Gamma(alpha + 1), the integral of the weight function, times
    # the prefactor
    weights = (math.gamma(alpha + 1.0) * 2.0 ** (1.0 / 6.0)
               / (2.0 * math.sqrt(math.pi) * math.gamma(5.0 / 6.0))) / norm
    for table in (f, g, nodes, weights):
        table.setflags(write=False)
    return f, g, nodes, weights


def _airy_ai(z: np.ndarray) -> np.ndarray:
    """Ai(z) exp((2/3) z^(3/2)) where z > 0 and Ai(z) where z <= 0, on a 1-D
    float array; good to about 1e-13, relative to the envelope
    sqrt(Ai^2 + Bi^2) on the z <= 0 side.  A NaN z gives NaN.

    * |z| <= ``_AIRY_SERIES_EDGE``: the Maclaurin series
      Ai(z) = Ai(0) f(z) + Ai'(0) g(z) (DLMF 9.4.1);
    * z beyond it: with zeta = (2/3) z^(3/2),
      Ai(z) exp(zeta) = 2^(1/6) / (2 sqrt(pi) Gamma(5/6)) z^(-1/4)
      integral dt t^(-1/6) exp(-t) (2 + t/zeta)^(-1/6),
      by the Gauss-Laguerre rule;
    * z = -x below minus it: Ai(-x) = 2 Re[exp(i pi/3) Ai(x exp(i pi/3))]
      (DLMF 9.2.11), where zeta turns imaginary, i zeta, and each node term
      is a modulus (4 + (t/zeta)^2)^(-1/12) and a phase atan(t/(2 zeta))/6.

    Each regime sums along rows, one row per element, so an element's value
    does not depend on the array it comes in.
    """
    f, g, nodes, weights = _airy_tables()
    out = np.full_like(z, np.nan)

    near = np.abs(z) <= _AIRY_SERIES_EDGE
    if near.any():
        zn = z[near]
        terms = (zn * zn * zn)[:, None] ** np.arange(_AIRY_TERMS) * (f + g * zn[:, None])
        out[near] = np.exp((2.0 / 3.0) * np.maximum(zn, 0.0) ** 1.5) * terms.sum(axis=1)

    decaying = z > _AIRY_SERIES_EDGE
    if decaying.any():
        zd = z[decaying]
        zeta = (2.0 / 3.0) * zd ** 1.5
        terms = weights * (2.0 + nodes / zeta[:, None]) ** (-1.0 / 6.0)
        out[decaying] = zd ** -0.25 * terms.sum(axis=1)

    oscillating = z < -_AIRY_SERIES_EDGE
    if oscillating.any():
        x = -z[oscillating]
        zeta = (2.0 / 3.0) * x ** 1.5
        ratio = nodes / zeta[:, None]
        modulus = weights * (4.0 + ratio * ratio) ** (-1.0 / 12.0)
        phase = np.arctan(0.5 * ratio) / 6.0
        wave = zeta - 0.25 * math.pi
        out[oscillating] = 2.0 * x ** -0.25 * ((modulus * np.cos(phase)).sum(axis=1) * np.cos(wave)
                                               + (modulus * np.sin(phase)).sum(axis=1) * np.sin(wave))
    return out


def _airy_argument(gamma: float, s: float, y: float | np.ndarray):
    """Argument ``z = (s^4/(12 gamma) - y) / (3 gamma)^(1/3)`` of the Airy
    function in the cubic-state factor; +inf at gamma = 0."""
    with np.errstate(divide="ignore", over="ignore"):
        cube = np.float64(3.0 * gamma) ** (1.0 / 3.0)
        return (s ** 4 / np.float64(12.0 * gamma) - y) / cube


def _airy_factor(gamma: float, s: float, y: np.ndarray) -> np.ndarray:
    """Real values of the cubic-state factor on a 1-D float array of y.

    ``u = 12 gamma y / s^4 < 1`` is the z > 0 side.  At gamma = 0, and for
    gamma so small that z overflows, z is +inf and every point takes the
    large-z branch.
    """
    norm = (s * s / np.pi) ** 0.25
    with np.errstate(divide="ignore", over="ignore"):
        airy_scale = norm * math.sqrt(2.0 * math.pi) / np.float64(3.0 * gamma) ** (1.0 / 3.0)
        growth = s ** 6 / np.float64(108.0 * gamma * gamma)
    z = _airy_argument(gamma, s, y)
    u = 12.0 * gamma * y / s ** 4
    out = np.zeros_like(y)

    decaying = u < 1.0
    w = np.sqrt(1.0 - u[decaying])
    zd = z[decaying]
    values = np.exp(-(4.0 / 3.0) * (y[decaying] / s) ** 2 * (w + 0.5) / (1.0 + w) ** 2)
    far = zd > AIRY_ASYMPTOTIC_Z
    # Ai(z) exp(2/3 z^(3/2)) = (1 - 5/(48 z^(3/2)) + ...) / (2 sqrt(pi) z^(1/4))
    values[far] *= norm / (s * np.sqrt(w[far])) * (1.0 - 5.0 / 48.0 * zd[far] ** -1.5)
    values[~far] *= airy_scale * _airy_ai(zd[~far])
    out[decaying] = values

    oscillating = np.flatnonzero(~decaying)
    scale = np.exp(growth * (1.0 - 1.5 * u[oscillating]))
    keep = scale > 0.0
    live = oscillating[keep]
    out[live] = airy_scale * scale[keep] * _airy_ai(z[live])
    return out


def oscillatory_fourier_factor(
    gamma: float,
    s: float,
    y: Union[float, np.ndarray],
) -> Union[complex, np.ndarray]:
    """Momentum-representation amplitude of the cubic phase state,

    ``(2 pi)^(-1/2) integral dx exp(-i y x) (s^2/pi)^(1/4)
    exp(-s^2 x^2 / 2) exp(+i gamma x^3)``,

    in closed form (DLMF 9.5).  Shifting the contour by -i s^2/(6 gamma)
    completes the cube and leaves an Airy function of a real argument,

    ``F(y) = (s^2/pi)^(1/4) sqrt(2 pi) (3 gamma)^(-1/3)
    exp(s^6/(108 gamma^2) - s^2 y/(6 gamma)) Ai(z)``,
    ``z = (s^4/(12 gamma) - y) / (3 gamma)^(1/3)``,

    so F is real.  On the z > 0 side, with ``u = 12 gamma y / s^4`` and
    ``w = sqrt(1 - u)``, the exponential cancels against the decay of Ai to
    ``exp(-(4/3) (y/s)^2 (w + 1/2) / (1 + w)^2)`` times Ai(z) exp((2/3) z^(3/2)),
    which stays finite as gamma -> 0.  Beyond ``AIRY_ASYMPTOTIC_Z`` the
    large-z series replaces that product; gamma = 0 is its w = 1 limit, the
    Gaussian.
    On the z <= 0 side a factor whose exponential underflows is exactly 0, so
    an impossible outcome reads as zero probability rather than NaN.

    Returns a complex for a scalar y and a complex128 array for a 1-D y.
    """
    validate_cubic_params(gamma, s)
    if np.isscalar(y):
        return complex(_airy_factor(gamma, s, np.array([float(y)]))[0])
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a scalar or a 1-D array")
    return _airy_factor(gamma, s, y).astype(np.complex128)
