import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgate import (
    CatParams,
    CubicPhaseResource,
    FockResource,
    Grid,
    make_cat,
    make_cubic_phase,
    make_fock,
    make_vacuum,
    overlap,
)
from catgate.errors import GridSupportError, NyquistError
from catgate.numerics import SUPPORT_TOL, hermite_values
from conftest import GRID, ODD_GRID


def moment(psi, power):
    x = psi.grid.points
    return float(np.trapezoid(x ** power * np.abs(psi.values) ** 2, dx=psi.grid.spacing))


# ---------------------------------------------------------------- resources

def test_resource_validation():
    with pytest.raises(ValueError):
        FockResource(-1)
    with pytest.raises(ValueError):
        FockResource(65)
    with pytest.raises(ValueError):
        CubicPhaseResource(1.5, 0.3)
    with pytest.raises(ValueError):
        CubicPhaseResource(0.3, 0.01)
    with pytest.raises(ValueError):
        CubicPhaseResource(-0.1, 0.3)


@pytest.mark.parametrize("resource", [FockResource(0), FockResource(3), FockResource(64),
                                      CubicPhaseResource(0.3, 0.5), CubicPhaseResource(0.0, 0.5)],
                         ids=["fock0", "fock3", "fock64", "cubic", "cubic_gamma0"])
@pytest.mark.parametrize("size", [0, 1, 9])
def test_amplitude_is_real_and_times_its_phase_is_the_factor(resource, size):
    y = np.linspace(-3.0, 3.0, size)
    amplitude = resource.amplitude(y)
    assert amplitude.dtype == np.float64 and amplitude.shape == y.shape
    factor = resource.momentum_factor(y)
    product = resource.phase * amplitude
    assert product.dtype == factor.dtype and product.tobytes() == factor.tobytes()
    if size:
        y[size // 2] = math.nan
        assert np.isnan(resource.amplitude(y)[size // 2])
        assert np.isnan(resource.momentum_factor(y)[size // 2])
        assert not np.any(np.isnan(np.delete(resource.amplitude(y), size // 2)))


# ---------------------------------------------------------------- vacuum

def test_vacuum_examples():
    vac = make_vacuum(ODD_GRID)
    assert abs(vac.values[ODD_GRID.n_points // 2]) == pytest.approx(0.751126, abs=1e-6)
    assert vac.squared_norm() == pytest.approx(1.0, abs=1e-10)
    assert moment(vac, 2) == pytest.approx(0.5, abs=1e-8)


def test_vacuum_grid_too_small():
    with pytest.raises(GridSupportError):
        make_vacuum(Grid(-4.0, 4.0, 64))


# ---------------------------------------------------------------- fock

def test_fock_zero_is_vacuum():
    assert np.max(np.abs(make_fock(0, GRID).values - make_vacuum(GRID).values)) < 1e-14


def test_fock_virial_second_moment():
    # oscillator identity: <x^2> in |n> equals n + 1/2
    assert moment(make_fock(5, GRID), 2) == pytest.approx(5.5, abs=1e-6)


def test_fock_zero_crossings():
    psi = make_fock(5, GRID)
    mask = np.abs(GRID.points) < 4.5
    signs = np.sign(psi.values.real[mask])
    crossings = int(np.sum(np.diff(signs) != 0))
    assert crossings == 5


# ---------------------------------------------------------------- cubic phase state

def test_cubic_zero_gamma_unit_s_is_vacuum():
    psi = make_cubic_phase(0.0, 1.0, GRID)
    assert np.max(np.abs(psi.values - make_vacuum(GRID).values)) < 1e-12


def cubic_phase_amplitude(gamma, s, t):
    """psi_res of the cubic resource, as ``make_cubic_phase`` samples it."""
    return (s ** 2 / np.pi) ** 0.25 * np.exp(-s ** 2 * t ** 2 / 2.0 + 1j * gamma * t ** 3)


@pytest.mark.parametrize("resource", [
    *[FockResource(n) for n in (0, 5, 10)],
    *[CubicPhaseResource(gamma, s) for gamma in (0.0, 1.0) for s in (0.05, 1.0)],
], ids=repr)
def test_resource_band_bounds_the_spectrum(resource):
    # F's spectrum is psi_res itself; beyond the band it is below the tolerance
    def amplitude(t):
        if isinstance(resource, FockResource):
            return hermite_values(resource.n, t)
        return cubic_phase_amplitude(resource.gamma, resource.s, t)

    band = resource.band()
    peak = np.max(np.abs(amplitude(np.linspace(-band, band, 20001))))
    outside = np.linspace(band, 3.0 * band, 20001)[1:]
    for t in (outside, -outside):
        assert np.max(np.abs(amplitude(t))) < SUPPORT_TOL * peak


def test_cubic_modulus_is_gaussian():
    gamma, s = 0.075, 0.171
    g = Grid(-40.0, 40.0, 65536)
    psi = make_cubic_phase(gamma, s, g)
    sigma = 1.0 / (s * math.sqrt(2.0))
    assert sigma == pytest.approx(4.135, abs=5e-3)
    expected = (s ** 2 / np.pi) ** 0.25 * np.exp(-g.points ** 2 / (4 * sigma ** 2))
    assert np.max(np.abs(np.abs(psi.values) - expected)) < 1e-10


@pytest.mark.parametrize("gamma", [0.032, 0.118, 0.205, 0.291, 0.377])
def test_cubic_norm_across_nonlinearities(gamma):
    g = Grid(-26.0, 26.0, 65536)
    assert make_cubic_phase(gamma, 0.25, g).squared_norm() == pytest.approx(1.0, abs=1e-8)


def test_cubic_grid_errors():
    with pytest.raises(GridSupportError):
        make_cubic_phase(0.075, 0.171, GRID)  # needs |x| <= 6/0.171 ~ 35
    with pytest.raises(NyquistError):
        make_cubic_phase(0.334, 0.3, Grid(-20.0, 20.0, 128))


# ---------------------------------------------------------------- cat states

def test_cat_zero_displacement_is_vacuum():
    cat = make_cat(CatParams(0.0, 0.0, "even"), GRID)
    assert np.max(np.abs(cat.values - make_vacuum(GRID).values)) < 1e-12


def test_odd_cat_node_at_origin():
    cat = make_cat(CatParams(math.sqrt(11.0), 0.0, "odd"), ODD_GRID)
    assert abs(cat.values[ODD_GRID.n_points // 2]) < 1e-14
    assert abs(overlap(cat, cat)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(p_plus=st.floats(0.0, 5.0), odd=st.booleans())
def test_cat_parity_at_zero_phase(p_plus, odd):
    if odd and p_plus < 0.1:
        p_plus += 0.1  # odd cats with p ~ 0 are degenerate
    parity = "odd" if odd else "even"
    cat = make_cat(CatParams(p_plus, 0.0, parity), GRID)
    sign = -1.0 if odd else 1.0
    assert np.max(np.abs(cat.values[::-1] - sign * cat.values)) < 1e-10
    assert cat.squared_norm() == pytest.approx(1.0, abs=1e-10)


def test_cat_degenerate_parameters():
    with pytest.raises(ValueError):
        make_cat(CatParams(0.0, math.pi / 2, "even"), GRID)
    with pytest.raises(ValueError):
        CatParams(-1.0, 0.0, "even")
    with pytest.raises(ValueError):
        CatParams(1.0, 0.0, "weird")
