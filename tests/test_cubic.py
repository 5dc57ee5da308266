import math

import numpy as np
import pytest

from catgate import (
    CubicGateConfig,
    FockResource,
    collapse,
    default_grid,
    fidelity,
    make_vacuum,
    probability_density,
    reference_cat,
    squeezing_db,
    squeezing_scan,
)
from catgate.states import CubicPhaseResource

GRID = default_grid()
VACUUM = make_vacuum(GRID)
ODD_CAT = reference_cat(5, 0.0, GRID)

# configurations where the cubic gate matches the Fock n=5 gate in success
# probability and in fidelity, respectively
MATCH_P = CubicGateConfig(0.075, 2.486, 0.171)
MATCH_F = CubicGateConfig(0.334, 11.012, 0.241)


def test_config_validation():
    with pytest.raises(ValueError):
        CubicGateConfig(1.5, 1.0, 0.3)
    with pytest.raises(ValueError):
        CubicGateConfig(0.3, 1.0, 0.01)
    with pytest.raises(ValueError):
        CubicGateConfig(0.3, -1.0, 0.3)


def test_copy_spacing():
    # the copy spacing of a centered input is the resource's copy shift at y_m
    assert MATCH_P.resource.copy_shift(MATCH_P.y_m) == math.sqrt(2.486 / (3.0 * 0.075))
    assert math.isnan(CubicGateConfig(0.0, 0.0, 1.0).resource.copy_shift(0.0))


def test_degenerate_reduction_to_fock_zero():
    cfg = CubicGateConfig(0.0, 0.0, 1.0)
    cubic = collapse(VACUUM, cfg.resource, cfg.y_m)
    fock = collapse(VACUUM, FockResource(0), 0.0)
    assert np.max(np.abs(cubic.psi_out.values - fock.psi_out.values)) < 1e-6
    assert cubic.norm_N == pytest.approx(fock.norm_N, abs=1e-9)


def test_probability_matched_configuration():
    result = collapse(VACUUM, MATCH_P.resource, MATCH_P.y_m)
    assert result.norm_N == pytest.approx(0.098, abs=3e-3)
    infidelity = 1.0 - fidelity(result.psi_out, ODD_CAT)
    assert infidelity == pytest.approx(0.098, abs=5e-3)


def test_fidelity_matched_configuration():
    result = collapse(VACUUM, MATCH_F.resource, MATCH_F.y_m)
    assert result.norm_N == pytest.approx(0.022, abs=3e-3)
    infidelity = 1.0 - fidelity(result.psi_out, ODD_CAT)
    assert infidelity == pytest.approx(0.005, abs=2e-3)


def test_squeezing_scan_hits_matched_point():
    scan = squeezing_scan(0.075, 2.486, np.array([0.111, 0.141, 0.171, 0.201]))
    row = int(np.flatnonzero(scan.s == 0.171)[0])
    assert scan.probability[row] == pytest.approx(0.098, abs=3e-3)
    assert scan.infidelity[row] == pytest.approx(0.098, abs=5e-3)
    assert scan.inverse_s[row] == pytest.approx(1.0 / 0.171)
    # probability rises with s through the matched point
    assert np.all(np.diff(scan.probability) > 0)


def test_squeezing_db_convention():
    assert squeezing_db(0.171) == pytest.approx(15.3, abs=0.1)
    assert squeezing_db(0.241) == pytest.approx(12.4, abs=0.1)


@pytest.mark.slow
def test_outcome_density_integrates_to_one():
    # adaptive window: the semiclassical momentum support runs up to
    # ~ 3 gamma (3/s)^2 before the coordinate Gaussian tail cuts off
    gamma, s = MATCH_P.gamma, MATCH_P.s
    resource = CubicPhaseResource(gamma, s)
    tail_edge = 27.0 * gamma / s ** 2 + 8.0
    fine = np.arange(-10.0, 40.0, 0.05)
    coarse = np.arange(40.0, tail_edge, 0.25)
    p_fine = np.array([probability_density(VACUUM, resource, float(y)) for y in fine])
    p_coarse = np.array([probability_density(VACUUM, resource, float(y)) for y in coarse])
    total = np.trapezoid(p_fine, dx=0.05) + np.trapezoid(p_coarse, dx=0.25)
    assert total == pytest.approx(1.0, abs=1e-3)
