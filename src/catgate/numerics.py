"""Shared numerical kernels: grids, wavefunctions, Hermite functions, Fourier
transforms in the continuum convention, and the closed-form Airy factor of
the cubic-phase ancilla.

The Airy function of a real argument is evaluated here in numpy
(``_airy_ai``) by regime of its argument: the Maclaurin series for |z| <= 2,
generalised Gauss-Laguerre rules for its integral representation in between,
with fewer nodes the larger |z| (Gil, Segura and Temme, Numer. Algorithms 30
(2002); DLMF 9.4, 9.7), and the asymptotic expansions DLMF 9.7.5 and 9.7.9
from |z| = 10 on; good to about 1e-13.  Its tables are computed on first
use, so only cubic runs pay for them.

Conventions used throughout the package:

* quadratures are dimensionless, ``a = (q + ip)/sqrt(2)``, ``[q, p] = i``;
* the Fourier transform to the momentum representation is
  ``[F psi](y) = (2 pi)^(-1/2) integral dx exp(-i y x) psi(x)``;
* all integrals on grids use the trapezoid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Union

import numpy as np

from .errors import GridMismatchError, GridSupportError

MAX_HERMITE_ORDER = 64

#: Smallest ancilla squeezing factor the cubic resource model supports.
MIN_SQUEEZING = 0.05

#: ``_airy_factor`` caps |y| here, so that no intermediate overflows: beyond
#: it the factor is an exact 0 for every valid (gamma, s), its exponent below
#: -(2/3) y^2 / (1 + sqrt(1 + 12 |y|)) on the z > 0 side and -s^2 y / 18 past it.
_AIRY_ZERO_Y = 1e7

#: The regimes of ``_airy_ai``, by |z|: the Maclaurin series with
#: ``_AIRY_TERMS`` terms up to ``_AIRY_SERIES_EDGE``; then, up to each edge of
#: ``_AIRY_RULES``, a Gauss-Laguerre rule with its node count; and from the
#: last edge on the asymptotic expansion with ``_AIRY_EXPANSION_TERMS``
#: coefficients u_k.  The counts come from a comparison with 30-digit mpmath:
#: each regime stays within 1e-14 of it on both sides of z = 0, but for the
#: z < 0 expansion's 8e-14, the roundoff of cos and sin of a large zeta.  So
#: the value jumps by no more than that at an edge.  Counts good to only
#: 5e-14 made such jumps show in the collapsed cubic states: their Wigner
#: position marginal missed |psi|^2 by 1.7e-14 where it misses by 2.5e-15.
_AIRY_SERIES_EDGE = 2.0
_AIRY_TERMS = 12
_AIRY_RULES = ((3.0, 32), (5.0, 20), (7.5, 12), (10.0, 8))
_AIRY_EXPANSION_TERMS = 16

#: Amplitudes below this fraction of their peak count as zero: they bound a
#: state's support (``WaveFunction.support``), and with it the work of the
#: collapse, the Wigner transform and the outcome grader.
SUPPORT_TOL = 1e-15

#: ``SUPPORT_TOL`` as a decay exponent, for the resources' bands.
SUPPORT_LOG = -math.log(SUPPORT_TOL)

#: Size of one block of work, as complex numbers, in the batched transforms
#: of ``analysis.WignerRows``.  A batch of rows holds its products and one
#: FFT buffer, each about this size, and the blocks of the reach order set
#: each row's K, and with it the row's bits.  2 MiB blocks were the fastest
#: of 0.5 to 16 MiB on the default 512 x 512 Wigner axes.  It also sizes
#: ``AIRY_BLOCK``; the stream's summary reduces each batch as it comes.
BLOCK_BYTES = 2 * 2 ** 20

#: Nodes per Airy pass, of ``gate.Grader``'s blocks for every resource
#: (``Resource.amplitudes``) and of the odd-cat ladder's scan
#: blocks (``matching._block_scan``): at the largest node count of
#: ``_AIRY_RULES`` their Gauss-Laguerre node terms, float64, hold
#: ``BLOCK_BYTES``, and the default 39-point squeezing sweep's 7830 nodes
#: are one pass.
AIRY_BLOCK = BLOCK_BYTES // (8 * max(count for _, count in _AIRY_RULES))


def _is_integer(value) -> bool:
    """Whether value is an integer, Python's or numpy's but not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


@dataclass(frozen=True)
class Grid:
    """Uniform coordinate grid, endpoints included."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        # an integer size that numpy can index; a float size, inf and nan
        # included, or a bool is refused here, not by the first array built
        size = _is_integer(self.n_points) and self.n_points <= np.iinfo(np.intp).max
        if not (size and math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError(f"grid needs finite bounds and size, the size an integer "
                             f"that fits an array index, got {self}")
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
    ``validate_fock_order`` refuses is a ValueError.  |x| is capped at 40, so
    that x^2 cannot overflow; exp(-x^2/2), and every psi_k, is an exact 0 there.
    """
    validate_fock_order(n)
    x = np.asarray(x, dtype=np.float64)
    if x.size and max(-x.min(), x.max()) > 40.0:
        x = np.clip(x, -40.0, 40.0)
    h0 = np.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    if n == 0:
        return h0
    prev, cur = h0, math.sqrt(2.0) * x * h0
    if n > 1:
        # the recurrence in place, with the operations of the expression
        # above: prev takes each psi_{k+1}, and scratch x sqrt(2/(k+1)) psi_k
        prev, cur, scratch = np.asarray(prev), np.asarray(cur), np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=scratch)
        scratch *= cur
        prev *= math.sqrt(k / (k + 1.0))
        np.subtract(scratch, prev, out=prev)
        prev, cur = cur, prev
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


def _dft_buffer(rows: tuple[int, ...], n: int, m: int) -> np.ndarray:
    """The zeroed buffer in which ``_offset_dft`` transforms ``rows`` rows
    of n inputs into m outputs each: ``next_fast_len(n + m - 1)`` complex
    values a row."""
    return np.zeros(rows + (next_fast_len(n + m - 1),), dtype=np.complex128)


def _offset_dft(buf: np.ndarray, x0: float, h: float, y0: float, dy: float, m: int,
                n: int) -> np.ndarray:
    """Evaluate ``X_j = sum_n f_n exp(-i y_j x_n)`` along the last axis of f,
    for ``x_n = x0 + n h`` and ``y_j = y0 + j dy``, ``j = 0 .. m-1``, via
    Bluestein's chirp factorization:
    ``y_j x_n = y_j x0 + y0 h n + dy h (j^2 + n^2 - (j-n)^2)/2``.

    Every leading index of f is an independent transform, all done in one
    batched FFT pass; the result has f's leading shape and a last axis of
    length m.  Exact up to FFT roundoff for any offsets and spacings, of
    either sign.

    f is the first n columns of ``buf``, a zeroed ``_dft_buffer`` of f's
    leading shape into which the caller wrote it.  The call chirps f in
    place, and both FFTs and the kernel product transform the buffer in
    place; the result is a view of it.  So a call holds nothing else of the
    buffer's size, and f is overwritten.
    """
    f = buf[..., :n]
    nfft = buf.shape[-1]
    a = dy * h
    k = np.arange(n, dtype=np.float64)
    kk = np.arange(max(n, m), dtype=np.float64)
    chirp = np.exp(0.5j * a * kk * kk)
    kernel = np.zeros(nfft, dtype=np.complex128)
    kernel[:m] = chirp[:m]
    if n > 1:
        kernel[-(n - 1):] = chirp[1:n][::-1]
    f *= np.exp(-1j * ((y0 * h) * k + 0.5 * a * k * k))
    np.fft.fft(buf, axis=-1, out=buf)
    buf *= np.fft.fft(kernel)
    out = np.fft.ifft(buf, axis=-1, out=buf)[..., :m]
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
    dx, n = grid.spacing, grid.n_points
    buf = _dft_buffer((), n, n)
    buf[:n] = psi.values
    out = _offset_dft(buf, grid.x_min, dx, grid.x_min, dx, n, n)
    return WaveFunction(grid, out * dx / math.sqrt(2.0 * math.pi))


def validate_fock_order(n: int) -> None:
    """Check shared by every Fock entry point, the Hermite kernel included:
    n is an integer (``_is_integer``) in its range."""
    if not _is_integer(n):
        raise ValueError(f"Fock order must be an integer, got {n!r}")
    if not 0 <= n <= MAX_HERMITE_ORDER:
        raise ValueError(f"Fock resource supports n in [0, {MAX_HERMITE_ORDER}], got {n}")


def validate_cubic_params(gamma: float, s: float) -> None:
    """Check shared by every cubic-resource entry point: gamma and s are in
    their ranges, and neither is a bool, Python's or numpy's."""
    for name, value in (("gamma", gamma), ("s", s)):
        if isinstance(value, (bool, np.bool_)):
            raise ValueError(f"cubic parameter {name} must be a number, got {value!r}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"cubic nonlinearity gamma must be in [0, 1], got {gamma}")
    if not MIN_SQUEEZING <= s <= 1.0:
        raise ValueError(f"squeezing factor s must be in [{MIN_SQUEEZING}, 1], got {s}")


def _gauss_laguerre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Halved nodes t/2 and weights of the ``count``-node generalised
    Gauss-Laguerre rule with alpha = -1/6 (Golub-Welsch: the eigenvalues of
    its Jacobi matrix, and the first components of its eigenvectors), the
    weights times the Airy integral's prefactor 1 / (2 sqrt(pi) Gamma(5/6)).
    The components come from a recurrence: on a 2-vCPU Xeon VM ``eigvalsh``
    takes 0.1 ms where ``eigh`` takes 16 ms."""
    alpha = -1.0 / 6.0
    j = np.arange(count)
    diagonal = 2.0 * j + alpha + 1.0
    off = np.sqrt(j * (j + alpha))  # off[j] couples rows j - 1 and j; off[0] = 0
    nodes = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off[1:], 1) + np.diag(off[1:], -1))
    # a first component squared is 1 / sum_j p_j(t)^2 over the orthonormal
    # polynomials, which the matrix's rows generate
    p_prev, p = np.zeros(count), np.ones(count)
    norm = np.ones(count)
    for row in range(count - 1):
        p_prev, p = p, ((nodes - diagonal[row]) * p - off[row] * p_prev) / off[row + 1]
        norm += p * p
    # mu_0 = Gamma(alpha + 1), the integral of the weight function, times
    # the prefactor
    weights = (math.gamma(alpha + 1.0) / (2.0 * math.sqrt(math.pi) * math.gamma(5.0 / 6.0))) / norm
    return 0.5 * nodes, weights


def _airy_series(z: np.ndarray, fg: np.ndarray) -> np.ndarray:
    """Ai(z) = Ai(0) f(z) + Ai'(0) g(z) (DLMF 9.4.1) by Horner in z^3, on
    the rows (f_k, g_k) of ``fg``, times exp((2/3) z^(3/2)) for z > 0."""
    cube = (z * z * z)[:, None]
    acc = fg[-1] * np.ones_like(cube)
    for row in fg[-2::-1]:
        acc *= cube
        acc += row
    return np.exp((2.0 / 3.0) * np.maximum(z, 0.0) ** 1.5) * (acc[:, 0] + z * acc[:, 1])


def _airy_decaying(z: np.ndarray, half_nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Ai(z) exp(zeta), zeta = (2/3) z^(3/2), for z > 0 by the Gauss-Laguerre
    rule for z^(-1/4) / (2 sqrt(pi) Gamma(5/6))
    integral dt t^(-1/6) exp(-t) (1 + t/(2 zeta))^(-1/6)."""
    zeta = (2.0 / 3.0) * z ** 1.5
    terms = weights * (1.0 + half_nodes / zeta[:, None]) ** (-1.0 / 6.0)
    return z ** -0.25 * terms.sum(axis=1)


def _airy_oscillating(z: np.ndarray, half_nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Ai(-x) = 2 Re[exp(i pi/3) Ai(x exp(i pi/3))] (DLMF 9.2.11) for z = -x < 0
    by the same rule: zeta turns imaginary, i zeta, and with h = t/(2 zeta)
    each node term is a modulus (1 + h^2)^(-1/12) times
    cos(zeta - pi/4 - atan(h)/6)."""
    x = -z
    zeta = (2.0 / 3.0) * x ** 1.5
    h = half_nodes / zeta[:, None]
    wave = (zeta - 0.25 * math.pi)[:, None] - np.arctan(h) / 6.0
    terms = weights * (1.0 + h * h) ** (-1.0 / 12.0) * np.cos(wave)
    return 2.0 * x ** -0.25 * terms.sum(axis=1)


def _airy_expansion(z: np.ndarray, u: np.ndarray, side: float) -> np.ndarray:
    """The asymptotic expansions in 1/zeta, zeta = (2/3) |z|^(3/2), summed as
    E = sum_k u_2k w^k and O = sum_k u_2k+1 w^k by Horner in w = side/zeta^2
    on the rows (u_2k, u_2k+1) of ``u``.  ``side`` +1, z > 0 (DLMF 9.7.5):
    Ai(z) exp(zeta) = (E - O/zeta) / (2 sqrt(pi) z^(1/4)); ``side`` -1, z < 0
    (DLMF 9.7.9): Ai(z) = (cos(zeta - pi/4) E + sin(zeta - pi/4) O/zeta) /
    (sqrt(pi) |z|^(1/4)).  Beyond |z| of about 1e102 zeta^2 overflows, and
    beyond 1e205 zeta itself: w and O/zeta then read 0, their limit."""
    x = side * z
    with np.errstate(over="ignore"):
        zeta = (2.0 / 3.0) * x ** 1.5
        w = (side / (zeta * zeta))[:, None]
    acc = u[-1] * np.ones_like(w)
    for row in u[-2::-1]:
        acc *= w
        acc += row
    even, odd = acc[:, 0], acc[:, 1] / zeta
    if side > 0:
        return (even - odd) / (2.0 * math.sqrt(math.pi) * x ** 0.25)
    wave = zeta - 0.25 * math.pi
    return (np.cos(wave) * even + np.sin(wave) * odd) / (math.sqrt(math.pi) * x ** 0.25)


@cache
def _airy_tables() -> tuple[np.ndarray, tuple]:
    """The regimes of ``_airy_ai``, built on its first call: the sorted edges
    in z, and one evaluator per interval between them, from z = -inf up.

    The tables are the Maclaurin coefficients of Ai(0) f(z) and Ai'(0) g(z) / z
    in powers of z^3, one Gauss-Laguerre rule per ``_AIRY_RULES`` entry, and
    the expansion's u_k from u_k = u_(k-1) (6k-5)(6k-3)(6k-1) / ((2k-1) 216 k).
    A regime holds its lower edge; the series also holds z = 2, as |z| <= 2.
    """
    k = np.arange(1, _AIRY_TERMS)
    f = np.cumprod(np.r_[1.0, 1.0 / ((3 * k - 1) * (3 * k))])
    g = np.cumprod(np.r_[1.0, 1.0 / ((3 * k) * (3 * k + 1))])
    f *= 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    g *= -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    k = np.arange(1, _AIRY_EXPANSION_TERMS)
    u = np.cumprod(np.r_[1.0, (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k)])
    fg, pairs = np.stack([f, g], axis=1), u.reshape(-1, 2)
    rules = [_gauss_laguerre(count) for _, count in _AIRY_RULES]
    outer = [edge for edge, _ in _AIRY_RULES]
    edges = np.array([-edge for edge in outer[::-1]]
                     + [-_AIRY_SERIES_EDGE, np.nextafter(_AIRY_SERIES_EDGE, np.inf)] + outer)
    for table in (fg, pairs, edges, *(t for rule in rules for t in rule)):
        table.setflags(write=False)
    regimes = (partial(_airy_expansion, u=pairs, side=-1.0),
               *(partial(_airy_oscillating, half_nodes=n, weights=w) for n, w in rules[::-1]),
               partial(_airy_series, fg=fg),
               *(partial(_airy_decaying, half_nodes=n, weights=w) for n, w in rules),
               partial(_airy_expansion, u=pairs, side=1.0))
    return edges, regimes


def _airy_ai(z: np.ndarray) -> np.ndarray:
    """Ai(z) exp((2/3) z^(3/2)) where z > 0 and Ai(z) where z <= 0, on a 1-D
    float array; good to about 1e-13, relative to the envelope
    sqrt(Ai^2 + Bi^2) on the z <= 0 side.  A NaN z gives NaN.

    The regimes, by |z| (see ``_airy_tables``):

    * up to ``_AIRY_SERIES_EDGE``: the Maclaurin series;
    * up to each edge of ``_AIRY_RULES``: that edge's Gauss-Laguerre rule for
      the integral representation, ``_airy_decaying`` for z > 0 and
      ``_airy_oscillating`` for z < 0;
    * beyond the last edge: the asymptotic expansion, ``_airy_expansion``.

    One ``searchsorted`` gives every element its regime.  A call whose
    elements share one regime evaluates it on z itself; a mixed call gathers
    and scatters only the regimes present.  NaN sorts above every edge, into
    the z > 0 expansion, which keeps it.  Each regime works row by row, so
    an element's value does not depend on the array it comes in.
    """
    edges, regimes = _airy_tables()
    regime = edges.searchsorted(z, side="right")
    counts = np.bincount(regime, minlength=len(regimes))
    if z.size and counts[regime[0]] == z.size:
        return regimes[regime[0]](z)
    out = np.empty_like(z)
    order = np.argsort(regime, kind="stable")
    start = 0
    for evaluate, count in zip(regimes, counts.tolist()):
        if count:
            rows = order[start:start + count]
            out[rows] = evaluate(z[rows])
            start += count
    return out


def _airy_argument(gamma, s4, root, y: np.ndarray) -> np.ndarray:
    """The Airy argument ``z = (s^4/(12 gamma) - y) / (3 gamma)^(1/3)`` of the
    cubic-state factor, elementwise, from s^4 and the root (3 gamma)^(1/3):
    +inf at gamma = 0, and where s^4/(12 gamma) overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        return (s4 / (12.0 * gamma) - y) / root


def _airy_factor(points, counts, y: np.ndarray) -> np.ndarray:
    """Real values of the cubic-state factor on a 1-D float array of y, for
    many operating points in one pass: the first ``counts[0]`` values of y
    at ``points[0]`` = (gamma, s), the next ``counts[1]`` at ``points[1]``,
    and so on.  Each point's constants are computed on arrays and repeated
    per value, s^4 and (3 gamma)^(1/3) among them: an array ``**`` gives an
    element the same bits in any array, where a scalar one can differ from it
    in the last bit, so a value is the same in any batch.  The Airy function
    takes one ``_airy_ai`` call per side.

    ``u = 12 gamma y / s^4 < 1`` is the z > 0 side.  At gamma = 0, and for
    gamma so small that z overflows, z is +inf and every point takes the
    limit of the product there.
    """
    gamma, s = np.array(points, dtype=np.float64).T
    norm = (s * s / np.pi) ** 0.25
    s4, root = s ** 4, (3.0 * gamma) ** (1.0 / 3.0)
    with np.errstate(divide="ignore", over="ignore"):
        airy_scale = norm * math.sqrt(2.0 * math.pi) / root
        growth = s ** 6 / (108.0 * gamma * gamma)
    gamma, s, s4, root, norm, airy_scale, growth = np.repeat(
        [gamma, s, s4, root, norm, airy_scale, growth], counts, axis=1)
    y = np.clip(y, -_AIRY_ZERO_Y, _AIRY_ZERO_Y)
    z = _airy_argument(gamma, s4, root, y)
    u = 12.0 * gamma * y / s4
    out = np.zeros_like(y)

    below = u < 1.0
    decaying = np.flatnonzero(below)
    w = np.sqrt(1.0 - u[decaying])
    zd = z[decaying]
    values = np.exp(-(4.0 / 3.0) * (y[decaying] / s[decaying]) ** 2 * (w + 0.5) / (1.0 + w) ** 2)
    far = zd == np.inf
    # Ai(z) exp(2/3 z^(3/2)) -> 1 / (2 sqrt(pi) z^(1/4)), which reads 0 at
    # z = +inf, where its product with the prefactor -> norm / (s sqrt(w))
    values[far] *= norm[decaying[far]] / (s[decaying[far]] * np.sqrt(w[far]))
    values[~far] *= airy_scale[decaying[~far]] * _airy_ai(zd[~far])
    out[decaying] = values

    oscillating = np.flatnonzero(~below)
    scale = np.exp(growth[oscillating] * (1.0 - 1.5 * u[oscillating]))
    keep = scale != 0.0  # a NaN y keeps its NaN
    live = oscillating[keep]
    out[live] = airy_scale[live] * scale[keep] * _airy_ai(z[live])
    return out


def oscillatory_fourier_factor(
    gamma: float,
    s: float,
    y: Union[float, np.ndarray],
) -> Union[float, np.ndarray]:
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
    which stays finite as gamma -> 0.  Where z is +inf (gamma = 0, or
    s^4/(12 gamma) overflows) Ai(z) exp((2/3) z^(3/2)) reads 0, so that
    product takes its limit (s^2/pi)^(1/4) / (s sqrt(w)); at gamma = 0,
    where w = 1, it is the Gaussian.
    On the z <= 0 side a factor whose exponential underflows is exactly 0, so
    an impossible outcome reads as zero probability rather than NaN; a NaN y
    gives NaN.

    Returns a float for a scalar y and a float64 array for a 1-D y.
    """
    validate_cubic_params(gamma, s)
    if np.isscalar(y):
        return float(_airy_factor([(gamma, s)], [1], np.array([float(y)]))[0])
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a scalar or a 1-D array")
    return _airy_factor([(gamma, s)], [y.size], y)
