import hashlib
import math
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len as scipy_next_fast_len
from scipy.special import airy, airye

from catgate import (
    BestPhaseCat,
    CubicPhaseResource,
    FockResource,
    Grid,
    WaveFunction,
    fourier_transform,
    hermite_function,
    hermite_values,
    make_cubic_phase,
    make_fock,
    make_vacuum,
    odd_cat_ladder,
    oscillatory_fourier_factor,
    overlap,
)
from catgate.errors import GridMismatchError, GridSupportError
from catgate.numerics import (
    _AIRY_RULES,
    _AIRY_SERIES_EDGE,
    SUPPORT_TOL,
    _airy_ai,
    _airy_factor,
    _dft_buffer,
    _offset_dft,
    next_fast_len,
)
from conftest import GRID, ODD_GRID


# ---------------------------------------------------------------- grids

def test_grid_spacing_and_points():
    g = Grid(-2.0, 2.0, 17)
    assert g.spacing == pytest.approx(0.25)
    assert g.points[0] == -2.0 and g.points[-1] == 2.0
    assert np.allclose(np.diff(g.points), g.spacing)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid(1.0, -1.0, 64)


@pytest.mark.parametrize("bounds", [(-math.inf, 16.0, 4096), (-16.0, math.inf, 4096),
                                    (math.nan, 16.0, 4096), (-16.0, 16.0, math.nan),
                                    (-16.0, 16.0, math.inf)])
def test_grid_refuses_non_finite_numbers_when_built(bounds):
    with pytest.raises(ValueError, match="finite bounds and size"):
        Grid(*bounds)


@pytest.mark.parametrize("size", [4096.5, 4096.0, True, np.True_, 10 ** 400, 2 ** 63])
def test_grid_size_is_an_integer_that_fits_an_index(size):
    with pytest.raises(ValueError, match="the size an integer that fits an array index"):
        Grid(-16.0, 16.0, size)


def test_grid_size_may_be_a_numpy_integer():
    assert Grid(-16.0, 16.0, np.int64(64)).points.size == 64


def test_grid_symmetry_flag():
    assert Grid(-3.0, 3.0, 64).is_symmetric
    assert not Grid(-3.0, 3.5, 64).is_symmetric


def test_wavefunction_validation():
    with pytest.raises(ValueError):
        WaveFunction(GRID, np.zeros(7, dtype=complex))
    bad = np.zeros(GRID.n_points, dtype=complex)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        WaveFunction(GRID, bad)


def test_support_is_where_the_amplitude_exceeds_the_tolerance():
    vacuum = make_vacuum(GRID)
    live = vacuum.support()
    assert (live.start, live.stop) == (984, 3112)  # 2128 of the 4096 nodes
    amplitude = np.abs(vacuum.values)
    threshold = SUPPORT_TOL * amplitude.max()
    assert amplitude[live.start] > threshold >= amplitude[live.start - 1]
    assert amplitude[live.stop - 1] > threshold >= amplitude[live.stop]
    assert WaveFunction(GRID, np.zeros(GRID.n_points)).support() == slice(0, 0)
    assert WaveFunction(GRID, np.ones(GRID.n_points)).support() == slice(0, GRID.n_points)


# ---------------------------------------------------------------- hermite functions

def test_ground_state_value_at_origin():
    psi = hermite_function(0, ODD_GRID)
    i0 = ODD_GRID.n_points // 2
    assert ODD_GRID.points[i0] == 0.0
    assert psi.values[i0].real == pytest.approx(np.pi ** -0.25, abs=1e-10)
    assert abs(psi.values[i0]) == pytest.approx(0.751126, abs=1e-6)


def test_first_excited_vanishes_at_origin():
    psi = hermite_function(1, ODD_GRID)
    assert abs(psi.values[ODD_GRID.n_points // 2]) < 1e-14


def test_orthonormality_up_to_20():
    funcs = np.array([hermite_function(n, GRID).values for n in range(21)])
    weights = np.full(GRID.n_points, GRID.spacing)
    weights[0] = weights[-1] = GRID.spacing / 2
    gram = (funcs * weights) @ funcs.conj().T
    assert np.max(np.abs(gram - np.eye(21))) < 1e-8


def test_overlap_5_7_matches_gauss_hermite_oracle():
    # independent oracle: <psi_5|psi_7> via Gauss-Hermite nodes, exact for
    # the degree-12 polynomial part of the integrand
    nodes, wts = np.polynomial.hermite.hermgauss(16)
    h5 = np.polynomial.hermite.hermval(nodes, [0] * 5 + [1])
    h7 = np.polynomial.hermite.hermval(nodes, [0] * 7 + [1])
    norm = math.sqrt(np.pi * 2 ** 5 * math.factorial(5) * 2 ** 7 * math.factorial(7))
    oracle = float(np.sum(wts * h5 * h7)) / norm
    assert oracle == pytest.approx(0.0, abs=1e-14)
    grid_value = overlap(hermite_function(5, GRID), hermite_function(7, GRID))
    assert abs(grid_value - oracle) < 1e-8


@settings(max_examples=21, deadline=None)
@given(n=st.integers(min_value=0, max_value=20))
def test_hermite_parity(n):
    values = hermite_function(n, GRID).values
    assert np.max(np.abs(values[::-1] - (-1) ** n * values)) < 1e-10


def test_hermite_support_and_order_errors():
    with pytest.raises(GridSupportError):
        hermite_function(61, GRID)  # needs sqrt(123) + 5 > 16
    with pytest.raises(ValueError):
        hermite_function(65, Grid(-24.0, 24.0, 4096))
    with pytest.raises(ValueError):
        hermite_function(-1, GRID)
    psi = hermite_function(64, Grid(-22.0, 22.0, 8192))
    assert psi.squared_norm() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [-1, -7, 65])
@pytest.mark.parametrize("build", [
    lambda n: hermite_values(n, GRID.points),
    lambda n: hermite_function(n, Grid(-24.0, 24.0, 4096)),
    lambda n: FockResource(n),
    lambda n: odd_cat_ladder(1, reference_n=n),
], ids=["hermite_values", "hermite_function", "FockResource", "odd_cat_ladder"])
def test_fock_order_has_one_rule(build, n):
    # the exported kernel checks the order too, so that no negative order can
    # pass for psi_1; every path refuses with the one message
    with pytest.raises(ValueError, match=rf"^Fock resource supports n in \[0, 64\], got {n}$"):
        build(n)


@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True, np.True_], ids=repr)
@pytest.mark.parametrize("build", [
    lambda n: hermite_values(n, GRID.points),
    lambda n: hermite_function(n, Grid(-24.0, 24.0, 4096)),
    lambda n: FockResource(n),
    lambda n: odd_cat_ladder(1, reference_n=n),
    lambda n: BestPhaseCat(n).parameters([0.0]),
], ids=["hermite_values", "hermite_function", "FockResource", "odd_cat_ladder", "BestPhaseCat"])
def test_fock_order_is_an_integer(build, n):
    # an integral float or a bool would pass the range check as some other n
    with pytest.raises(ValueError, match=f"^{re.escape(f'Fock order must be an integer, got {n!r}')}$"):
        build(n)


@pytest.mark.parametrize("n", [3, np.int64(3)], ids=repr)
def test_fock_order_may_be_a_numpy_integer(n):
    assert np.array_equal(FockResource(n).momentum_factor(GRID.points),
                          FockResource(3).momentum_factor(GRID.points))


def _hermite_expression(n, x):
    """The recurrence as one expression a step: the in-place kernel's bits."""
    x = np.clip(np.asarray(x, dtype=np.float64), -40.0, 40.0)
    prev = np.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    if n == 0:
        return prev
    cur = math.sqrt(2.0) * x * prev
    for k in range(1, n):
        prev, cur = cur, x * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1.0)) * prev
    return cur


@pytest.mark.parametrize("n", [0, 1, 10, 64])
def test_hermite_values_keep_the_bits_of_the_expression(n):
    # the recurrence runs in reused buffers with the expression's operations
    x = np.r_[np.random.default_rng(5).uniform(-12.0, 12.0, 8192), 0.0, -0.0, 39.5, -40.0,
              40.5, -41.0, 1e6]
    values = hermite_values(n, x)
    assert values.tobytes() == _hermite_expression(n, x).tobytes()
    assert values.shape == x.shape and x[-1] == 1e6


def test_hermite_values_stable_at_high_order():
    vals = hermite_values(60, GRID.points)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 1.0


# ---------------------------------------------------------------- fourier transform

def test_vacuum_is_fourier_fixed_point():
    vac = make_vacuum(GRID)
    out = fourier_transform(vac)
    assert np.max(np.abs(out.values - vac.values)) < 1e-10


def test_fock_states_are_fourier_eigenfunctions():
    worst = 0.0
    for n in range(21):
        psi = hermite_function(n, GRID)
        out = fourier_transform(psi)
        worst = max(worst, float(np.max(np.abs(out.values - (-1j) ** n * psi.values))))
    assert worst < 1e-7


@settings(max_examples=20, deadline=None)
@given(
    ar=st.floats(-2, 2), ai=st.floats(-2, 2),
    br=st.floats(-2, 2), bi=st.floats(-2, 2),
)
def test_fourier_linearity(ar, ai, br, bi):
    a, b = complex(ar, ai), complex(br, bi)
    psi = hermite_function(3, GRID)
    phi = hermite_function(6, GRID)
    combined = WaveFunction(GRID, a * psi.values + b * phi.values)
    lhs = fourier_transform(combined).values
    rhs = a * fourier_transform(psi).values + b * fourier_transform(phi).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_fourier_unitarity_on_superposition():
    psi = WaveFunction(
        GRID,
        0.6 * hermite_function(0, GRID).values
        + (0.5 - 0.3j) * hermite_function(4, GRID).values
        + 0.2j * hermite_function(9, GRID).values,
    )
    assert abs(fourier_transform(psi).squared_norm() - psi.squared_norm()) < 1e-8


FOURIER_PINS = {
    "fock5": "8b77e1167581ff2adee32994846f8ec37020b00cbf25f40fd084d26b71c2bd72",
    "cubic": "b262e8a7c0a4480a79be1c1c6a74e337822cd7dcd3057c32b3acc517587dbc8a",
}


@pytest.mark.parametrize("name", FOURIER_PINS)
def test_fourier_transform_keeps_its_bits(name):
    # the transformed resource states on the default grid, bit for bit
    psi = make_fock(5, GRID) if name == "fock5" else make_cubic_phase(0.05, 0.5, GRID)
    digest = hashlib.sha256(fourier_transform(psi).values.tobytes()).hexdigest()
    assert digest == FOURIER_PINS[name]


def test_fourth_power_is_identity():
    for n in (0, 1, 5, 8):
        psi = hermite_function(n, GRID)
        out = psi
        for _ in range(4):
            out = fourier_transform(out)
        assert np.max(np.abs(out.values - psi.values)) < 1e-6


@pytest.mark.parametrize("m", [20, 50])
def test_offset_dft_matches_the_direct_sum(m):
    # two rows in one batch, y off the x lattice and fewer or more outputs
    # than inputs; the input is transformed in the buffer it was written into
    rng = np.random.default_rng(3)
    f = rng.normal(size=(2, 37)) + 1j * rng.normal(size=(2, 37))
    x0, h, y0, dy = 0.7, -0.3, -1.1, 0.13
    buf = _dft_buffer((2,), 37, m)
    buf[:, :37] = f
    out = _offset_dft(buf, x0, h, y0, dy, m, 37)
    direct = f @ np.exp(-1j * np.outer(x0 + h * np.arange(37), y0 + dy * np.arange(m)))
    assert out.shape == (2, m) and np.shares_memory(out, buf)
    assert np.max(np.abs(out - direct)) < 1e-12


def test_next_fast_len_matches_scipy():
    # the complex-FFT lengths: 11-smooth, as scipy's next_fast_len(n, real=False)
    sizes = [*range(1, 5000), 8191, 10237, 12000, 16385, 59999]
    assert [next_fast_len(n) for n in sizes] == [scipy_next_fast_len(n, real=False) for n in sizes]


def test_fock_runs_import_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "from catgate.cli import main\n"
        "from catgate.numerics import _airy_tables\n"
        f"assert main(['collapse', '--fock', '5', '--out', {str(tmp_path / 'c')!r}]) == 0\n"
        "print(sorted(m for m in ('scipy.fft', 'scipy.special') if m in sys.modules))\n"
        "print(_airy_tables.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    # no scipy, and no Airy set-up either
    assert out.stdout.splitlines()[-2:] == ["[]", "0"]


def test_no_run_imports_scipy(tmp_path):
    code = (
        "import sys\n"
        "from catgate.cli import main\n"
        f"assert main(['collapse', '--cubic', '0.075,2.486,0.171', '--out', {str(tmp_path / 'c')!r}]) == 0\n"
        f"assert main(['match', 'ladder', '--kmax', '2', '--out', {str(tmp_path / 'l')!r}]) == 0\n"
        f"assert main(['collapse', '--fock', '5', '--out', {str(tmp_path / 'f')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_asymmetric_grid_rejected():
    g = Grid(-8.0, 9.0, 2048)
    with pytest.raises(ValueError):
        fourier_transform(make_vacuum(g))


# ---------------------------------------------------------------- overlap

def test_overlap_normalization_and_parity():
    vac = make_vacuum(GRID)
    assert overlap(vac, vac).real == pytest.approx(1.0, abs=1e-10)
    assert abs(overlap(hermite_function(0, GRID), hermite_function(1, GRID))) < 1e-10


def test_coherent_state_overlap():
    # |<alpha|-alpha>|^2 = exp(-4 |alpha|^2) with alpha = i p/sqrt(2); at
    # p = sqrt(11) this is exp(-22)
    p = math.sqrt(11.0)
    vac = make_vacuum(GRID)
    plus = WaveFunction(GRID, np.exp(1j * p * GRID.points) * vac.values)
    minus = WaveFunction(GRID, np.exp(-1j * p * GRID.points) * vac.values)
    value = abs(overlap(plus, minus)) ** 2
    assert value == pytest.approx(math.exp(-22.0), rel=1e-8)
    assert value == pytest.approx(2.8e-10, rel=0.01)


def test_overlap_grid_mismatch():
    with pytest.raises(GridMismatchError):
        overlap(make_vacuum(GRID), make_vacuum(ODD_GRID))


# ---------------------------------------------------------------- Airy kernel

#: The kernel's regime edges in |z|: the series edge, then each rule's.
AIRY_EDGES = [_AIRY_SERIES_EDGE, *(edge for edge, _ in _AIRY_RULES)]


def test_airy_kernel_matches_mpmath():
    # dense over the arguments the cubic factor meets, and on both sides of
    # every regime edge; relative on z > 0, where the kernel returns
    # Ai(z) exp((2/3) z^(3/2)), and relative to the envelope sqrt(Ai^2 + Bi^2)
    # on z <= 0, where Ai has zeros
    mpmath.mp.dps = 30
    edges = [sign * edge + d for edge in AIRY_EDGES for sign in (-1.0, 1.0)
             for d in (-1e-12, 0.0, 1e-12)]
    zs = np.r_[np.linspace(-60.0, 40.0, 2001), edges]
    values = _airy_ai(zs)
    for z, value in zip(zs, values):
        zm = mpmath.mpf(float(z))
        ai = mpmath.airyai(zm)
        if z > 0:
            exact = ai * mpmath.exp(2 * zm ** mpmath.mpf(1.5) / 3)
            error = abs(value - exact) / exact
        else:
            error = abs(value - ai) / mpmath.sqrt(ai ** 2 + mpmath.airybi(zm) ** 2)
        assert error < 2e-13, z


def test_airy_kernel_matches_mpmath_far_out():
    # the arguments the cubic factor meets at large outcomes, down to
    # z = -1000; there the kernel evaluates cos and sin of zeta =
    # (2/3)|z|^(3/2), each to a few ulps of zeta, as in the scipy comparison
    mpmath.mp.dps = 30
    zs = np.linspace(-1000.0, -60.0, 301)
    values = _airy_ai(zs)
    for z, value in zip(zs, values):
        zm = mpmath.mpf(float(z))
        ai = mpmath.airyai(zm)
        envelope = mpmath.sqrt(ai ** 2 + mpmath.airybi(zm) ** 2)
        zeta = (2.0 / 3.0) * abs(z) ** 1.5
        assert abs(value - ai) <= envelope * (2e-13 + 4.0 * np.finfo(float).eps * zeta), z


def test_airy_kernel_gives_each_element_its_own_call_bits():
    # one array that mixes every regime, its edges and NaN gives each element
    # the bits, zero signs included, of a call of its own: a regime's value
    # does not depend on the array, nor on the other regimes in it
    rng = np.random.default_rng(11)
    bounds = np.r_[-60.0, -np.array(AIRY_EDGES[::-1]), AIRY_EDGES, 60.0]
    inside = rng.uniform(bounds[:-1], bounds[1:], (5, bounds.size - 1)).ravel()
    edges = [sign * edge for edge in AIRY_EDGES for sign in (-1.0, 1.0)]
    zs = rng.permutation(np.r_[inside, edges, np.nextafter(edges, 0.0), 0.0, -0.0, np.nan])
    batched = _airy_ai(zs)
    single = np.array([_airy_ai(zs[i:i + 1])[0] for i in range(zs.size)])
    assert np.array_equal(batched, single, equal_nan=True)
    assert np.array_equal(np.signbit(batched), np.signbit(single))
    assert np.isnan(batched[np.isnan(zs)]).all() and np.isfinite(batched[~np.isnan(zs)]).all()


def test_cubic_factor_gives_each_point_its_own_call_bits():
    # one call over many points gives each point the bits, zero signs
    # included, of a call of its own: random points, mixed gamma (which the
    # sweeps never batch), gamma = 0 (z = +inf) and (0.001, 0.6), whose
    # oscillating side underflows to exact zeros past y of about 19
    rng = np.random.default_rng(5)
    points = [(0.0, 0.5), (0.001, 0.6), *zip(rng.uniform(0.0, 1.0, 40), rng.uniform(0.05, 1.0, 40))]
    ys = [rng.uniform(-20.0, 40.0, rng.integers(1, 64)) for _ in points]
    batched = _airy_factor(points, [y.size for y in ys], np.concatenate(ys))
    single = np.concatenate([_airy_factor([point], [y.size], y) for point, y in zip(points, ys)])
    assert np.array_equal(batched, single)
    assert np.array_equal(np.signbit(batched), np.signbit(single))
    underflow = _airy_factor([(0.001, 0.6)], [2], np.array([5.0, 30.0]))
    assert underflow[0] > 0.0 and underflow[1] == 0.0


@pytest.mark.parametrize("factor", [
    lambda values: hermite_values(7, values),
    lambda values: FockResource(7).momentum_factor(values),
], ids=["hermite_values", "FockResource"])
def test_fock_factor_gives_each_value_its_own_call_bits(factor):
    # the grader evaluates many outcomes' factors in one call; 41 clips the
    # batch at |x| = 40, which moves no value inside it
    rng = np.random.default_rng(13)
    xs = rng.permutation(np.r_[rng.uniform(-12.0, 12.0, 300), 0.0, -0.0, 40.0, 41.0, -1e6])
    batched = factor(xs)
    single = np.concatenate([factor(xs[i:i + 1]) for i in range(xs.size)])
    assert np.array_equal(batched, single)
    assert np.array_equal(np.signbit(batched.real), np.signbit(single.real))
    assert np.array_equal(np.signbit(batched.imag), np.signbit(single.imag))


def test_airy_kernel_matches_scipy():
    rng = np.random.default_rng(7)
    zs = rng.uniform(-1e3, 1e6, 100_000)
    values = _airy_ai(zs)
    up = zs > 0
    scaled = airye(zs[up])[0]
    assert np.max(np.abs(values[up] - scaled) / scaled) < 2e-13
    ai, _, bi, _ = airy(zs[~up])
    # on z <= 0 both evaluate cos and sin of zeta = (2/3)|z|^(3/2), each to a
    # few ulps of zeta
    zeta = (2.0 / 3.0) * np.abs(zs[~up]) ** 1.5
    bound = np.hypot(ai, bi) * (2e-13 + 4.0 * np.finfo(float).eps * zeta)
    assert np.all(np.abs(values[~up] - ai) <= bound)


# ---------------------------------------------------------------- oscillatory factor

def test_zero_nonlinearity_reduces_to_gaussian_transform():
    s = 0.3
    g = Grid(-40.0, 40.0, 8192)
    squeezed = make_cubic_phase(0.0, s, g)
    via_fft = fourier_transform(squeezed)
    via_factor = oscillatory_fourier_factor(0.0, s, g.points)
    assert np.max(np.abs(via_factor - via_fft.values)) < 1e-7


def test_matches_airy_asymptote_at_strong_squeezing():
    # stationary-phase identity:
    #   integral dx exp(i gamma x^3 - i y x) = 2 pi (3 gamma)^(-1/3)
    #   Ai(-(3 gamma)^(-1/3) y)
    gamma, s = 0.075, 0.05
    ys = np.linspace(-3.0, 3.0, 25)
    factor = oscillatory_fourier_factor(gamma, s, ys)
    scale = (3.0 * gamma) ** (-1.0 / 3.0)
    prefactor = (2 * np.pi) ** -0.5 * (s ** 2 / np.pi) ** 0.25 * 2 * np.pi * scale
    asymptote = prefactor * airy(-scale * ys)[0]
    rel = np.abs(factor - asymptote) / np.maximum(np.abs(asymptote), 1e-12)
    assert np.max(rel) < 0.02


def test_matches_high_precision_closed_form():
    # completing the cube moves the contour by -i s^2/(6 gamma) and leaves an
    # Airy function of a real argument:
    #   F(y) = (2 pi)^(-1/2) (s^2/pi)^(1/4) 2 pi (3 gamma)^(-1/3)
    #          exp(s^6/(108 gamma^2) - s^2 y/(6 gamma))
    #          Ai((s^4/(12 gamma) - y)/(3 gamma)^(1/3))
    # evaluated here at 50 digits as an independent oracle
    mpmath.mp.dps = 50
    cases = [
        (0.075, 0.171, (-2.0, 0.0, -0.514, 2.486, 5.486)),  # probability-matched point
        (0.334, 0.241, (8.012, 11.012, 14.012)),  # fidelity-matched point
        (1.0, 0.05, (-3.0, 0.0, 2.5, 11.0)),  # strongest nonlinearity and squeezing
        (1e-6, 1.0, (-3.0, 0.0, 1.0, 3.0)),  # z = 5.8e6, the expansion regime
    ]
    for gamma, s, ys in cases:
        for y in ys:
            g, sv, yv = mpmath.mpf(gamma), mpmath.mpf(s), mpmath.mpf(y)
            cube = (3 * g) ** mpmath.mpf("1/3")
            exact = (
                (2 * mpmath.pi) ** mpmath.mpf("-0.5")
                * (sv ** 2 / mpmath.pi) ** mpmath.mpf("0.25")
                * 2 * mpmath.pi / cube
                * mpmath.exp(sv ** 6 / (108 * g ** 2) - sv ** 2 * yv / (6 * g))
                * mpmath.airyai((sv ** 4 / (12 * g) - yv) / cube)
            )
            numeric = oscillatory_fourier_factor(gamma, s, y)
            assert abs(numeric - complex(exact)) / abs(complex(exact)) < 1e-12


def test_modulus_decays_below_and_oscillates_above():
    gamma, s = 0.075, 0.05
    below = np.abs(oscillatory_fourier_factor(gamma, s, np.linspace(-6.0, -2.0, 30)))
    assert np.all(np.diff(below) > 0)  # decays toward more negative y
    above = np.abs(oscillatory_fourier_factor(gamma, s, np.linspace(2.0, 8.0, 200)))
    extrema = np.sum(np.diff(np.sign(np.diff(above))) != 0)
    assert extrema >= 4


def _trapezoid_cubic_factor(gamma, s, y, oversample=4.0):
    # reference quadrature of the defining integral on |x| <= 8/s, with a step
    # `oversample` times finer than pi / (4 max|phase slope|) over the window
    half_width = 8.0 / s
    slope = 3.0 * gamma * half_width ** 2 + abs(y) + s ** 2 * half_width
    n = int(math.ceil(2.0 * half_width * 4.0 * slope * oversample / np.pi)) + 1
    x = np.linspace(-half_width, half_width, n)
    f = np.exp(-s ** 2 * x ** 2 / 2.0 + 1j * (gamma * x ** 3 - y * x))
    integral = np.trapezoid(f, x)
    return complex((s ** 2 / np.pi) ** 0.25 * integral / math.sqrt(2.0 * math.pi))


@pytest.mark.parametrize(
    "gamma,s,y_m", [(0.075, 0.171, 2.486), (0.334, 0.241, 11.012)]
)
def test_agrees_with_oversampled_trapezoid(gamma, s, y_m):
    for y in (y_m - 3.0, y_m, y_m + 3.0):
        closed = oscillatory_fourier_factor(gamma, s, y)
        fine = _trapezoid_cubic_factor(gamma, s, y)
        assert abs(closed - fine) / abs(fine) < 1e-6


@pytest.mark.parametrize(
    "gamma,s", [(0.075, 0.171), (0.334, 0.241), (1.0, 0.5), (1e-3, 1.0), (0.0, 0.05)]
)
def test_factor_satisfies_parseval(gamma, s):
    # the resource state has unit norm, so its momentum amplitude does too
    h = 0.01
    ys = np.arange(-60.0, 400.0, h)
    total = np.trapezoid(np.abs(oscillatory_fourier_factor(gamma, s, ys)) ** 2, dx=h)
    assert total == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(0.0, 1.0),
    s=st.floats(0.05, 1.0),
    y=st.floats(-1e9, 1e9),
)
@example(gamma=5e-324, s=0.05, y=-1e9)
@example(gamma=1e-310, s=1.0, y=1e9)
@example(gamma=0.0, s=0.05, y=1e9)
@example(gamma=1.0, s=0.05, y=1e9)
@example(gamma=1e-118, s=0.5, y=0.0)
def test_factor_is_finite_over_the_validated_box(gamma, s, y):
    assert math.isfinite(oscillatory_fourier_factor(gamma, s, y).real)
    window = oscillatory_fourier_factor(gamma, s, y + np.linspace(-16.0, 16.0, 65))
    assert np.all(np.isfinite(window))


def test_nan_outcome_gives_a_nan_cubic_factor():
    # like hermite_values and _airy_ai, and not 0, which reads as an
    # impossible outcome; the finite values keep their bits
    ys = np.array([math.nan, 1.0, -2.0, 30.0])
    factor = oscillatory_fourier_factor(0.3, 0.5, ys)
    assert np.isnan(factor[0]) and np.isnan(oscillatory_fourier_factor(0.3, 0.5, math.nan))
    assert np.array_equal(factor[1:], oscillatory_fourier_factor(0.3, 0.5, ys[1:]))
    assert np.isnan(CubicPhaseResource(0.3, 0.5).momentum_factor(ys)[0])


def test_vector_matches_scalar_path():
    gamma, s = 0.2, 0.3
    ys = np.linspace(-1.0, 4.0, 11)
    vec = oscillatory_fourier_factor(gamma, s, ys)
    scal = np.array([oscillatory_fourier_factor(gamma, s, float(y)) for y in ys])
    assert np.max(np.abs(vec - scal)) < 1e-9
    reversed_vec = oscillatory_fourier_factor(gamma, s, ys[::-1])
    assert np.max(np.abs(reversed_vec[::-1] - vec)) < 1e-12


def test_nonuniform_y_falls_back_to_scalars():
    ys = np.array([0.1, 0.2, 0.5])
    out = oscillatory_fourier_factor(0.1, 0.4, ys)
    expected = np.array([oscillatory_fourier_factor(0.1, 0.4, float(y)) for y in ys])
    assert np.max(np.abs(out - expected)) == 0.0


def test_parameter_and_budget_errors():
    with pytest.raises(ValueError):
        oscillatory_fourier_factor(1.5, 0.3, 0.0)
    with pytest.raises(ValueError):
        oscillatory_fourier_factor(0.3, 0.01, 0.0)
    for y in (-1e9, 1e9):
        assert oscillatory_fourier_factor(1.0, 0.05, y) == 0.0
