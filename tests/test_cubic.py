import math
import tracemalloc

import numpy as np
import pytest

from catgate import (
    CubicGateConfig,
    FockResource,
    collapse,
    fidelity,
    gate,
    probability_density,
    reference_cat,
    squeezing_db,
    squeezing_scan,
)
from catgate.cubic import SQUEEZING_SWEEP
from catgate.errors import ZeroProbabilityError
from catgate.states import CubicPhaseResource
from conftest import GRID, VACUUM

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
    with pytest.raises(ValueError, match="y_m >= 0"):
        CubicGateConfig(0.3, float("nan"), 0.3)
    with pytest.raises(ValueError, match="are finite, got y_m=inf"):
        CubicGateConfig(0.3, math.inf, 0.5)


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
    s = np.array([0.111, 0.141, 0.171, 0.201])
    probability, infidelity = squeezing_scan(0.075, 2.486, s)
    row = int(np.flatnonzero(s == 0.171)[0])
    assert probability[row] == pytest.approx(0.098, abs=3e-3)
    assert infidelity[row] == pytest.approx(0.098, abs=5e-3)
    # probability rises with s through the matched point
    assert np.all(np.diff(probability) > 0)


# the matched points, a small outcome at strong nonlinearity, and a far one
SWEEP_POINTS = [(0.075, 2.486), (0.334, 11.012), (0.5, 0.3), (1.0, 30.0)]


@pytest.mark.parametrize("gamma, y_m", SWEEP_POINTS)
def test_squeezing_scan_is_one_grading_per_s(gamma, y_m):
    # the sweep is graded in one pass, each s on its own stride, to the bit
    s_values = np.linspace(*SQUEEZING_SWEEP)
    probability, infidelity = squeezing_scan(gamma, y_m, s_values)
    single = [gate.Grader(VACUUM, ODD_CAT).grade([(CubicPhaseResource(gamma, s), [y_m])])
              for s in s_values]
    assert np.array_equal(probability, [p[0] for p, _ in single])
    assert np.array_equal(infidelity, [1.0 - f[0] for _, f in single])


@pytest.mark.parametrize("gamma, y_m", SWEEP_POINTS)
def test_squeezing_sweep_is_one_plan_and_one_airy_pass(monkeypatch, airy_call_sizes, gamma, y_m):
    # the sweep's 7830 nodes fit in one block: one decaying and one
    # oscillating Airy call at most
    plans = []
    original = gate._grading_plan
    monkeypatch.setattr(gate, "_grading_plan", lambda *args: plans.append(1) or original(*args))
    squeezing_scan(gamma, y_m, np.linspace(*SQUEEZING_SWEEP))
    assert len(plans) == 1
    assert 1 <= len(airy_call_sizes) <= 2


def test_long_squeezing_sweep_memory_is_its_blocks():
    # 2000 points hold about 387k nodes; they go through in blocks, so the
    # peak is a few MiB over the two 16 kB result arrays
    s_values = np.linspace(0.05, 1.0, 2000)
    squeezing_scan(0.334, 11.012, s_values[:2])  # tables and caches built
    tracemalloc.start()
    try:
        probability, infidelity = squeezing_scan(0.334, 11.012, s_values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probability.shape == infidelity.shape == (2000,)
    assert peak < 6 * 2 ** 20


def test_squeezing_scan_raises_at_the_first_failing_s():
    # at (0.001, 30) P is below MIN_COLLAPSE_NORM for s = 0.3 and 0.6 but not
    # for 0.1 and 1; the sweep fails as the per-s gradings in order do, at 0.6
    with pytest.raises(ZeroProbabilityError) as expected:
        gate.Grader(VACUUM, ODD_CAT).grade([(CubicPhaseResource(0.001, 0.6), [30.0])])
    with pytest.raises(ZeroProbabilityError) as raised:
        squeezing_scan(0.001, 30.0, [0.1, 0.6, 0.3, 1.0])
    assert str(raised.value) == str(expected.value)
    assert "s=0.6)" in str(raised.value)


def test_grader_takes_no_jobs():
    probability, fidelity = gate.Grader(VACUUM, ODD_CAT).grade([])
    assert probability.shape == fidelity.shape == (0,)


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
