import math
from itertools import islice

import numpy as np
import pytest

from catgate import (
    CubicGateConfig,
    CubicPhaseResource,
    collapse,
    compare_gates,
    fit_squeezing,
    matched_outcome_ratio,
    matching,
    odd_cat_ladder,
    oscillatory_fourier_factor,
    reference_cat,
)
from catgate.cubic import SQUEEZING_SWEEP
from catgate.errors import ConvergenceError, FitRangeError
from catgate.gate import grade_outcomes
from catgate.matching import _node_residual, _roots, _scan
from catgate.numerics import _airy_ai
from conftest import GRID, VACUUM, odd_cat_phase_offset

# benchmark operating points for the first two odd-cat entries
ENTRY_1 = (1.066, 0.032)
ENTRY_2 = (2.486, 0.075)


def test_matched_outcome_ratio():
    assert matched_outcome_ratio(5) == 33.0
    assert matched_outcome_ratio(0) == 3.0


def test_ladder_first_two_entries():
    entries = odd_cat_ladder(2)
    assert len(entries) == 2
    for (y_m, gamma), (y_ref, g_ref) in zip(entries, (ENTRY_1, ENTRY_2)):
        assert abs(y_m - y_ref) < 0.02
        assert abs(gamma - g_ref) < 0.002
        assert gamma == pytest.approx(y_m / 33.0, abs=1e-12)


def test_ladder_nine_entries_are_pinned():
    # y_m of `match ladder --kmax 9`; gamma is y_m / 33
    pinned = [1.0779785156250006, 2.492138671875, 3.9108886718749947, 5.33081054687499,
              6.7511230468749845, 8.171533203124984, 9.592138671875002, 11.012744140625024,
              12.433447265625041]
    assert odd_cat_ladder(9) == [(y_m, y_m / 33.0) for y_m in pinned]


@pytest.mark.parametrize("s", [0.05, 0.3, 1.0])
def test_node_residual_has_the_sign_and_zeros_of_the_factor(s):
    # the residual is Ai(z) alone; the factor is a positive prefactor times it
    ratio = matched_outcome_ratio(5)
    nodes = np.fromiter(_scan(0.5, 13.0, 0.05, ratio), float)
    residuals = _node_residual(nodes, s, ratio)
    factors = [oscillatory_fourier_factor(y_m / ratio, s, y_m).real for y_m in nodes]
    assert np.array_equal(np.sign(residuals), np.sign(factors))  # so also zero where it is


# the default scan, and one shifted by a fraction of its step as a seed shifts it
@pytest.mark.parametrize("start", [0.5, 0.5 + 0.05 * 0.37])
def test_scan_residuals_are_the_one_node_residuals(start):
    # one kernel call over the whole scan gives each node the bits, zero
    # signs included, that a call of its own gives it
    ratio = matched_outcome_ratio(5)
    nodes = np.fromiter(_scan(start, 13.0, 0.05, ratio), float)
    batched = _node_residual(nodes, 0.05, ratio)
    single = np.array([_node_residual(np.array([y_m]), 0.05, ratio)[0] for y_m in nodes])
    assert np.array_equal(batched, single)
    assert np.array_equal(np.signbit(batched), np.signbit(single))


@pytest.fixture
def airy_call_sizes(monkeypatch):
    """The size of every ``_airy_ai`` call the matching layer makes."""
    sizes = []

    def counted(z):
        sizes.append(z.size)
        return _airy_ai(z)

    monkeypatch.setattr(matching, "_airy_ai", counted)
    return sizes


def test_ladder_scan_blocks_double_from_16(airy_call_sizes):
    # the scan is drawn in blocks of 16, then 32, ... nodes, each block one
    # kernel call; every bisection step is a one-node call, 9 per root to
    # halve the 0.05 step below 1e-4.  The first root, near y_m = 1.078, lies
    # in the first block and the second, near 2.492, in the second, so 48 of
    # the default scan's 251 nodes are evaluated
    odd_cat_ladder(2)
    assert airy_call_sizes == [16] + [1] * 9 + [32] + [1] * 9
    assert sum(size for size in airy_call_sizes if size > 1) <= 48


def test_fine_ladder_scan_is_evaluated_in_blocks(airy_call_sizes):
    # however fine the step, a kernel call holds at most _LADDER_BLOCK nodes,
    # 2 MiB of node sums at 32 nodes.  With 1e-4 steps the roots near y_m =
    # 1.078 and 2.492 are nodes 5780 and 19921: the blocks of 16 to 4096 hold
    # 8176 nodes, and three more blocks of the cap reach past the second root
    entries = odd_cat_ladder(2, scan_step=1e-4)
    assert [y_m for y_m, _ in entries] == pytest.approx([1.0779785156250006, 2.492138671875],
                                                        abs=1e-4)
    assert matching._LADDER_BLOCK == 4096
    blocks = [16 << k for k in range(9)] + [4096] * 3
    assert [size for size in airy_call_sizes if size > 1] == blocks


def test_ladder_entries_realize_odd_cats():
    # feeding an entry back through the gate must give a state whose
    # interference node sits at the origin (phase offset ~ 0)
    entries = odd_cat_ladder(2)
    for y_m, gamma in entries:
        cfg = CubicGateConfig(gamma, y_m, 0.05)
        result = collapse(VACUUM, cfg.resource, cfg.y_m)
        theta = odd_cat_phase_offset(result.psi_out, math.sqrt(11.0))
        assert abs(theta) < 0.05


def test_ladder_determinism():
    kwargs = dict(scan_start=0.9, scan_stop=1.3, scan_step=0.05)
    first = odd_cat_ladder(1, **kwargs)
    second = odd_cat_ladder(1, **kwargs)
    assert first == second
    assert abs(first[0][0] - ENTRY_1[0]) < 0.02


def test_ladder_errors():
    with pytest.raises(ConvergenceError):
        odd_cat_ladder(1, scan_start=0.5, scan_stop=0.9, scan_step=0.05)
    # a stop below the start scans nothing
    with pytest.raises(ConvergenceError):
        odd_cat_ladder(1, scan_start=1.3, scan_stop=0.9, scan_step=0.05)
    # the scan ends at gamma = 1, y_m = 3(2n+1) = 9 for n = 1, short of 13
    with pytest.raises(ConvergenceError, match=r"in \[0\.5, 9\.0\]"):
        odd_cat_ladder(9, reference_n=1)
    with pytest.raises(ValueError):
        odd_cat_ladder(0)
    with pytest.raises(ValueError):
        odd_cat_ladder(10)
    # the reference photon number follows the Fock range rule
    with pytest.raises(ValueError, match=r"Fock resource supports n in \[0, 64\], got -1"):
        odd_cat_ladder(1, reference_n=-1)


def test_ladder_checks_its_values_before_the_scan():
    # s is checked even for a scan with no node
    with pytest.raises(ValueError, match=r"squeezing factor s must be in \[0\.05, 1\], got 0\.01"):
        odd_cat_ladder(1, s=0.01, scan_start=14.0, scan_stop=13.0, scan_step=0.05)
    # a start below y_m = 0 names gamma at the first node, -0.33 / 33
    with pytest.raises(ValueError, match=r"gamma must be in \[0, 1\], got -0\.01$"):
        odd_cat_ladder(1, scan_start=-0.33)
    with pytest.raises(ValueError, match="the scan step must be positive, got 0"):
        odd_cat_ladder(1, scan_step=0.0)


def _counted(f):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    return counted, calls


def _pairs(f, nodes):
    return ((x, f(x)) for x in nodes)


def test_roots_stop_at_the_kth_root():
    # roots at 1.5 and 3.7 between the integer nodes; the first bisection
    # lands on 1.5 exactly, the second takes four steps to a width of 1/16
    f, calls = _counted(lambda x: (x - 1.5) * (x - 3.7))
    assert next(_roots(f, _pairs(f, range(10)), 0.1)) == (1.5, 1)
    assert calls == [0, 1, 2, 1.5]
    f, calls = _counted(lambda x: (x - 1.5) * (x - 3.7))
    assert list(islice(_roots(f, _pairs(f, range(10)), 0.1), 2)) == [(1.5, 1), (3.71875, 4)]
    assert calls == [0, 1, 2, 1.5, 3, 4, 3.5, 3.75, 3.625, 3.6875]


def test_roots_take_an_exact_zero_node():
    f, calls = _counted(lambda x: x - 3.0)
    assert list(_roots(f, _pairs(f, range(10)), 0.1)) == [(3, 0)]
    assert calls == list(range(10))


def test_roots_need_a_sign_change():
    f, calls = _counted(lambda x: (x - 4.5) ** 2 + 1.0)
    assert list(_roots(f, _pairs(f, range(10)), 0.1)) == []
    assert calls == list(range(10))


@pytest.mark.parametrize(
    "gamma,y_m,target,value,s_fit",
    [(0.075, 2.486, "probability", 0.098, 0.169140625),
     (0.334, 11.012, "infidelity", 0.005, 0.266015625)],
)
def test_fit_squeezing_pinned_values(gamma, y_m, target, value, s_fit):
    # the values of a scan over the whole sweep; stopping at the first bracket
    # must not move them
    report = fit_squeezing(gamma, y_m, target, value)
    assert report.fitted.s == pytest.approx(s_fit, abs=1e-12)
    assert report.iterations == 5
    assert report.converged


@pytest.mark.parametrize("gamma, y_m, target, value, bracket, s_cross", [
    (0.075, 2.486, "probability", 0.098, (0.15, 0.175), 0.169285),
    (0.334, 11.012, "infidelity", 0.005, (0.25, 0.275), 0.266306),
], ids=["06a", "06b"])
def test_fit_squeezing_brackets_the_graded_crossing(gamma, y_m, target, value, bracket, s_cross):
    # criteria 06a and 06b off the sweep grid: the graded curve, bisected to
    # 1e-9 in s, crosses its target at s_cross, and the fit's last bracket
    # holds that crossing
    reference = reference_cat(5, 0.0, GRID)

    def residual(s):
        p, f = grade_outcomes(VACUUM, CubicPhaseResource(gamma, s), [y_m], reference)
        return (p[0] if target == "probability" else 1.0 - f[0]) - value

    lo, hi = bracket
    r_lo = residual(lo)
    assert r_lo * residual(hi) < 0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if r_mid * r_lo > 0:
            lo, r_lo = mid, r_mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert abs(crossing - s_cross) <= 5e-5
    report = fit_squeezing(gamma, y_m, target, value)
    s_min, s_max, count = SQUEEZING_SWEEP
    half_bracket = (s_max - s_min) / (count - 1) / 2 ** (report.iterations + 1)
    assert abs(report.fitted.s - crossing) <= half_bracket


def test_fit_squeezing_probability_target():
    report = fit_squeezing(0.075, 2.486, "probability", 0.098)
    assert report.converged
    assert report.iterations > 0
    assert abs(report.fitted.s - 0.171) < 0.01
    assert abs(report.achieved_probability - 0.098) < 1e-3
    # achieved values recomputed from scratch agree with the stored ones
    check = collapse(VACUUM, report.fitted.resource, report.fitted.y_m)
    assert abs(check.norm_N - report.achieved_probability) < 1e-10


def test_fit_squeezing_deterministic():
    a = fit_squeezing(0.075, 2.486, "probability", 0.098)
    b = fit_squeezing(0.075, 2.486, "probability", 0.098)
    assert a.fitted.s == b.fitted.s
    assert a.achieved_probability == b.achieved_probability


def test_fit_squeezing_out_of_range():
    with pytest.raises(FitRangeError):
        fit_squeezing(0.075, 2.486, "probability", 1.0)
    with pytest.raises(ValueError):
        fit_squeezing(0.075, 2.486, "norm", 0.1)


def test_compare_gates_degenerate_reduction():
    comparison = compare_gates(0, CubicGateConfig(0.0, 0.0, 1.0))
    assert comparison.fock.probability == pytest.approx(comparison.cubic.probability, abs=1e-9)
    assert comparison.fock.infidelity == pytest.approx(comparison.cubic.infidelity, abs=1e-9)
    assert comparison.fock.copy_spacing == 1.0
    assert math.isnan(comparison.cubic.copy_spacing)
    assert comparison.fock.wigner is None


def test_compare_gates_probability_matched_entry():
    comparison = compare_gates(5, CubicGateConfig(0.075, 2.486, 0.171))
    assert comparison.fock.probability == pytest.approx(comparison.cubic.probability, abs=2e-3)
    assert 15.0 < comparison.infidelity_ratio < 25.0
    assert comparison.fock.copy_spacing == pytest.approx(math.sqrt(11.0), abs=1e-12)
    assert comparison.cubic.copy_spacing == pytest.approx(math.sqrt(11.0), abs=0.01)


def test_compare_gates_with_wigner():
    comparison = compare_gates(1, CubicGateConfig(0.05, 0.45, 0.5), include_wigner=True)
    assert comparison.fock.wigner is not None
    assert comparison.fock.wigner.normalization() == pytest.approx(1.0, abs=1e-4)
    assert comparison.cubic.wigner.normalization() == pytest.approx(1.0, abs=1e-4)
