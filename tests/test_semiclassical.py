import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgate import (
    BestPhaseCat,
    CatParams,
    CubicPhaseResource,
    FockResource,
    Grid,
    added_factor,
    collapse,
    default_grid,
    fidelity,
    linearize,
    make_cat,
    make_vacuum,
    phase_function,
    reference_cat,
)
from catgate.errors import LinearizationDomainError
from conftest import odd_cat_phase_offset

GRID = default_grid()
ODD_GRID = Grid(-16.0, 16.0, 4097)


# ---------------------------------------------------------------- mappings
# the in-out mapping p_out = p_in +- delta_p(y - q) is the resources' copy_shift

def test_fock_mapping_two_branches():
    shift = FockResource(5).copy_shift(0.0)
    assert shift.shape == ()
    assert shift == math.sqrt(11.0)
    assert shift == pytest.approx(3.3166, abs=1e-4)
    shifts = FockResource(5).copy_shift(np.array([-0.5, 0.5]))
    assert shifts[0] == shifts[1] > 0.0


def test_fock_mapping_no_branches():
    assert math.isnan(FockResource(0).copy_shift(2.0))


def test_fock_mapping_degenerate_edge():
    # 2n + 1 - u^2 = 0 exactly at n = 4, u = 3; one ulp beyond there is no copy
    edge = FockResource(4).copy_shift(np.array([-3.0, 3.0, np.nextafter(3.0, 4.0)]))
    assert edge[0] == edge[1] == 0.0
    assert math.isnan(edge[2])


def test_cubic_mapping_values():
    # direct evaluation of the in-out relation at the two benchmark points
    shift1 = CubicPhaseResource(0.075, 0.171).copy_shift(2.486)
    assert shift1 == math.sqrt(2.486 / (3.0 * 0.075))
    assert shift1 == pytest.approx(3.3240, abs=1e-4)
    shift2 = CubicPhaseResource(0.334, 0.241).copy_shift(np.array([11.012]))
    assert shift2[0] == math.sqrt(11.012 / (3.0 * 0.334))
    assert shift2[0] == pytest.approx(3.3151, abs=1e-4)


def test_cubic_mapping_empty_and_invalid():
    # u = y - q < 0 admits no copy; gamma = 0 admits none anywhere; no warning
    u = np.array([-1.0, 0.0, 1.0, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shifts = CubicPhaseResource(0.075, 0.171).copy_shift(u)
        flat = CubicPhaseResource(0.0, 1.0).copy_shift(u)
    assert np.isnan(shifts[[0, 3]]).all() and shifts[1] == 0.0 and shifts[2] > 0.0
    assert flat.shape == u.shape and np.isnan(flat).all()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 10),
    y_m=st.floats(-6.0, 6.0),
    q=st.floats(-4.0, 4.0),
)
def test_fock_branch_count_tracks_discriminant(n, y_m, q):
    disc = 2 * n + 1 - (y_m - q) ** 2
    shift = FockResource(n).copy_shift(y_m - q)
    assert math.isnan(shift) == (disc < 0)
    if disc >= 0:
        assert shift == math.sqrt(disc)


# ---------------------------------------------------------------- copy phase

def test_phase_function_anchor_values():
    assert float(phase_function(5, 0.0)) == 0.0
    assert float(phase_function(5, 1.0)) == pytest.approx(11 * math.pi / 4, abs=1e-12)
    assert float(phase_function(5, 1.0)) == pytest.approx(8.6394, abs=1e-4)
    with pytest.raises(ValueError):
        phase_function(5, 1.0 + 1e-9)


def test_phase_slope_equals_momentum_shift():
    # d phi/dx must reproduce the measurement-added momentum
    # sqrt(2n+1 - (y_m - x)^2) wherever |z| <= 0.9
    n, y_m = 5, 0.3
    x = GRID.points
    z = (x - y_m) / math.sqrt(2 * n + 1)
    mask = np.abs(z) <= 0.9
    phi = phase_function(n, np.clip(z, -1.0, 1.0))
    slope = np.gradient(phi, GRID.spacing)
    delta_p = np.sqrt(np.clip(2 * n + 1 - (y_m - x) ** 2, 0.0, None))
    inner = mask & (np.abs(np.roll(z, 1)) <= 0.95) & (np.abs(np.roll(z, -1)) <= 0.95)
    rel = np.abs(slope[inner] - delta_p[inner]) / delta_p[inner]
    assert np.max(rel) < 1e-4


def test_mapping_branches_equal_momentum_shift_on_axis():
    n, y_m = 5, 0.3
    x = np.array([-1.0, 0.0, 0.7, 2.0])
    shifts = FockResource(n).copy_shift(y_m - x)
    for xi, shift in zip(x, shifts):
        assert shift == math.sqrt(2 * n + 1 - (y_m - xi) ** 2)


def test_added_factor_parity_behaviour():
    x = GRID.points
    vals_odd, valid = added_factor(5, 0.0, x)
    i_near = np.argmin(np.abs(x))
    # odd photon number: destructive interference at x = y_m
    assert abs(vals_odd[i_near]) < 1e-2 * np.max(np.abs(vals_odd))
    vals_even, _ = added_factor(6, 0.0, x)
    mags = np.abs(vals_even)
    window = mags[np.abs(x) < 0.5]
    assert mags[i_near] == pytest.approx(np.max(window), rel=1e-6)
    # turning-point exclusion zone
    assert not valid[np.abs((x - 0.0) / math.sqrt(11.0)) >= 1.0 - 1e-3].any()
    assert np.all(vals_odd[~valid] == 0.0)


def test_added_factor_reconstructs_exact_output():
    # normalized vacuum x added-factor state should sit on top of the exact
    # collapsed output away from the turning points
    vac = make_vacuum(GRID)
    vals, valid = added_factor(5, 0.0, GRID.points)
    approx = np.where(valid, vac.values * vals, 0.0)
    approx /= math.sqrt(np.trapezoid(np.abs(approx) ** 2, dx=GRID.spacing))
    exact = collapse(vac, FockResource(5), 0.0).psi_out.values
    exact_masked = np.where(valid, exact, 0.0)
    exact_masked /= math.sqrt(np.trapezoid(np.abs(exact_masked) ** 2, dx=GRID.spacing))
    overlap_sq = abs(np.trapezoid(np.conj(approx) * exact_masked, dx=GRID.spacing)) ** 2
    assert overlap_sq > 0.999


# ---------------------------------------------------------------- linearization

def test_linearize_anchor_values():
    lin = linearize(5, 0.0)
    assert lin == CatParams(math.sqrt(11.0), 0.0, "odd")
    assert lin.theta == 0.0
    assert abs(lin.p_plus - math.sqrt(11.0)) < 1e-12
    assert lin.parity == "odd"
    assert linearize(6, 0.0).parity == "even"
    for n in (1, 4, 9):
        assert linearize(n, 0.0).theta == 0.0


def test_linearize_boundary_and_domain():
    lin = linearize(5, math.sqrt(11.0) - 1e-9)
    assert lin.p_plus < 1e-4
    with pytest.raises(LinearizationDomainError):
        linearize(5, math.sqrt(11.0))
    with pytest.raises(LinearizationDomainError):
        linearize(5, 4.0)
    with pytest.raises(LinearizationDomainError, match="y_m=nan"):
        linearize(5, math.nan)


@pytest.mark.parametrize("n", [-1, 65])
def test_best_phase_checks_the_fock_order(n):
    with pytest.raises(ValueError, match=r"Fock resource supports n in \[0, 64\]"):
        linearize(n, 0.0)
    with pytest.raises(ValueError, match=r"Fock resource supports n in \[0, 64\]"):
        BestPhaseCat(n).parameters([0.0])


def test_linearize_matches_finite_difference_slope():
    n, y_m = 5, 0.5
    lin = linearize(n, y_m)
    h = 1e-5
    scale = math.sqrt(2 * n + 1)
    fd = (
        float(phase_function(n, (h - y_m) / scale))
        - float(phase_function(n, (-h - y_m) / scale))
    ) / (2 * h)
    assert abs(fd - lin.p_plus) / lin.p_plus < 1e-6


# ---------------------------------------------------------------- reference cats

def test_reference_cat_odd_node_and_even_extremum():
    odd = reference_cat(5, 0.0, ODD_GRID)
    i0 = ODD_GRID.n_points // 2
    assert abs(odd.values[i0]) < 1e-14
    even = reference_cat(6, 0.0, ODD_GRID)
    derivative = (even.values[i0 + 1] - even.values[i0 - 1]) / (2 * ODD_GRID.spacing)
    assert abs(derivative) < 1e-8


@pytest.mark.parametrize("y_m", [0.0, 0.5, 1.0])
def test_reference_cat_norm(y_m):
    for n in range(1, 11):
        assert reference_cat(n, y_m, GRID).squared_norm() == pytest.approx(1.0, abs=1e-8)


def test_best_phase_fidelity_improves_with_photon_number():
    vac = make_vacuum(GRID)
    values = [
        fidelity(collapse(vac, FockResource(n), 0.0).psi_out, reference_cat(n, 0.0, GRID))
        for n in range(1, 7)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_odd_cat_phase_offset_recovers_known_phase():
    for theta in (-0.05, 0.0, 0.03):
        cat = make_cat(CatParams(math.sqrt(11.0), theta, "odd"), GRID)
        assert odd_cat_phase_offset(cat, math.sqrt(11.0)) == pytest.approx(theta, abs=1e-3)
