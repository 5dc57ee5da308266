import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgate import (
    CubicGateConfig,
    CubicPhaseResource,
    collapse,
    compare_gates,
    fit_squeezing,
    gate,
    matched_outcome_ratio,
    odd_cat_ladder,
    oscillatory_fourier_factor,
    reference_cat,
    squeezing_scan,
)
from catgate.cubic import SQUEEZING_SWEEP
from catgate.errors import ConvergenceError, FitRangeError, ZeroProbabilityError
from catgate.gate import Grader
from catgate.matching import _node_residual, _roots, _scan
from catgate.numerics import AIRY_BLOCK, _airy_ai
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


def test_ladder_scan_blocks_double_from_16(airy_call_sizes):
    # the scan is drawn in blocks of 16, then 32, ... nodes, each block one
    # kernel call; the bisection takes 9 steps per root to halve the 0.05
    # step below 1e-4, three tree levels of 7 midpoints per call.  The first
    # root, near y_m = 1.078, lies in the first block and the second, near
    # 2.492, in the second, so 48 of the default scan's 251 nodes are evaluated
    odd_cat_ladder(2)
    assert airy_call_sizes == [16, 7, 7, 7, 32, 7, 7, 7]


def test_nine_entry_ladder_takes_31_kernel_calls(airy_call_sizes):
    odd_cat_ladder(9)
    assert len(airy_call_sizes) == 31
    assert [size for size in airy_call_sizes if size != 7] == [16, 32, 64, 128]


def test_fine_ladder_scan_is_evaluated_in_blocks(airy_call_sizes):
    # however fine the step, a kernel call holds at most AIRY_BLOCK nodes,
    # one Airy pass.  With 1e-4 steps the roots near y_m = 1.078 and 2.492
    # are nodes 5780 and 19921: the blocks of 16 to 8192 hold 16368 nodes,
    # and one more block of the cap reaches past the second root.  The first
    # root's bracket is already within 1e-4; the second's takes one step, a
    # one-node tree call
    entries = odd_cat_ladder(2, scan_step=1e-4)
    assert [y_m for y_m, _ in entries] == pytest.approx([1.0779785156250006, 2.492138671875],
                                                        abs=1e-4)
    assert AIRY_BLOCK == 8192
    assert airy_call_sizes == [16 << k for k in range(10)] + [AIRY_BLOCK, 1]


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
    # a step must move the top node, 13: 1e-17 moves no node, and 1e-16
    # moves 0.5 but not 1.0, where the scan would stall
    for step in (1e-17, 1e-16):
        with pytest.raises(ValueError, match=f"scan step {step} does not move the scan at y_m = 13.0"):
            odd_cat_ladder(1, scan_step=step)
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
    """f on arrays, one value per element, and the list of its calls."""
    calls = []

    def counted(xs):
        calls.append(xs.tolist())
        return np.array([f(x) for x in xs])

    return counted, calls


def _pairs(f, nodes, drawn=None):
    """Lazy (x, f(x)) pairs over nodes, each x appended to ``drawn`` as it
    is drawn."""
    for x in nodes:
        if drawn is not None:
            drawn.append(x)
        yield x, f(x)


def test_roots_stop_at_the_kth_root():
    # roots at 1.5 and 3.7 between the integer nodes.  The first bisection
    # lands on 1.5 exactly, in a call that covers three levels below [1, 2];
    # the second takes four steps to a width of 1/16: three levels below
    # [3, 4], then the one midpoint of [3.625, 3.75] still wider than 0.1.
    # No pair past the last root taken is drawn
    f = lambda x: (x - 1.5) * (x - 3.7)  # noqa: E731
    counted, calls = _counted(f)
    drawn = []
    assert next(_roots(counted, _pairs(f, range(10), drawn), 0.1)) == (1.5, 1)
    assert drawn == [0, 1, 2]
    assert calls == [[1.5, 1.25, 1.75, 1.125, 1.375, 1.625, 1.875]]
    counted, calls = _counted(f)
    drawn = []
    roots = _roots(counted, _pairs(f, range(10), drawn), 0.1)
    assert list(islice(roots, 2)) == [(1.5, 1), (3.71875, 4)]
    assert drawn == [0, 1, 2, 3, 4]
    assert calls[1:] == [[3.5, 3.25, 3.75, 3.125, 3.375, 3.625, 3.875], [3.6875]]


def test_roots_take_an_exact_zero_node():
    f = lambda x: x - 3.0  # noqa: E731
    counted, calls = _counted(f)
    drawn = []
    assert list(_roots(counted, _pairs(f, range(10), drawn), 0.1)) == [(3, 0)]
    assert drawn == list(range(10))
    assert calls == []


def test_roots_need_a_sign_change():
    f = lambda x: (x - 4.5) ** 2 + 1.0  # noqa: E731
    counted, calls = _counted(f)
    drawn = []
    assert list(_roots(counted, _pairs(f, range(10), drawn), 0.1)) == []
    assert drawn == list(range(10))
    assert calls == []


def test_roots_evaluate_alone_a_midpoint_whose_tree_call_fails():
    # f cannot be evaluated at 1.875, a midpoint of the first tree call below
    # [1, 2].  The walk takes that step's midpoint alone and goes on by tree
    # calls, so only a midpoint it reaches can fail it: the root at 1.3 is
    # found, and the walk to the root at 1.9 raises where it reaches 1.875
    def failing(root):
        def f(x):
            if x == 1.875:
                raise ZeroProbabilityError("cannot evaluate 1.875")
            return x - root
        return f

    f = failing(1.3)
    counted, calls = _counted(f)
    assert next(_roots(counted, _pairs(f, range(10)), 0.1)) == (1.28125, 4)
    assert calls == [[1.5, 1.25, 1.75, 1.125, 1.375, 1.625, 1.875], [1.5],
                     [1.25, 1.125, 1.375, 1.0625, 1.1875, 1.3125, 1.4375]]
    f = failing(1.9)
    counted, calls = _counted(f)
    with pytest.raises(ZeroProbabilityError, match="1.875"):
        next(_roots(counted, _pairs(f, range(10)), 0.1))
    assert calls[-2:] == [[1.875, 1.8125, 1.9375], [1.875]]


def _bisection_oracle(f, scan, tol):
    """Plain bisection, one call of ``f`` per step, under ``_roots``' rules."""
    roots = []
    x_prev, f_prev = None, 0.0
    for x, f_x in scan:
        if f_x == 0.0:
            roots.append((x, 0))
        elif np.sign(f_x) * np.sign(f_prev) < 0:
            lo, hi, f_lo = x_prev, x, f_prev
            iterations = 0
            while hi - lo > tol and iterations < 200:
                mid = 0.5 * (lo + hi)
                f_mid = f(mid)
                if f_mid == 0.0:
                    lo = hi = mid
                elif np.sign(f_mid) == np.sign(f_lo):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
                iterations += 1
            roots.append((0.5 * (lo + hi), iterations))
        x_prev, f_prev = x, f_x
    return roots


@st.composite
def _root_problems(draw):
    """Scan nodes, a polynomial with some roots on the bisection tree (so
    some midpoints are exact zeros), an interval where it reads NaN, and a
    tolerance, 0 among them (the 200-step cap)."""
    coordinate = st.floats(-10.0, 10.0, allow_subnormal=False)
    nodes = sorted(draw(st.lists(coordinate, min_size=2, max_size=8, unique=True)))
    roots = draw(st.lists(coordinate, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(nodes) - 2))
        lo, hi = nodes[k], nodes[k + 1]
        for right in draw(st.lists(st.booleans(), max_size=4)):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if right else (lo, mid)
        roots.append(0.5 * (lo + hi))
    nan_band = draw(st.none() | st.tuples(coordinate, st.floats(0.0, 5.0)))
    tol = draw(st.just(0.0) | st.floats(1e-9, 1.0))

    def f(x):
        if nan_band is not None and nan_band[0] <= x <= nan_band[0] + nan_band[1]:
            return math.nan
        return math.prod(x - r for r in roots)

    return nodes, f, tol


@settings(max_examples=150, deadline=None)
@given(_root_problems())
def test_roots_match_sequential_bisection(problem):
    # tree levels change how f is called, not what the walk sees: the roots
    # and step counts of a bisection that calls f once per step
    nodes, f, tol = problem
    counted, calls = _counted(f)
    assert list(_roots(counted, _pairs(f, nodes), tol)) == _bisection_oracle(f, _pairs(f, nodes), tol)
    assert all(len(call) <= 7 for call in calls)


@pytest.fixture
def grading_passes(monkeypatch):
    """The s values of every ``Grader.grade`` pass: the fits grade
    through ``squeezing_curve``, which makes them."""
    passes = []
    original = gate.Grader.grade

    def counted(grader, jobs):
        passes.append([resource.s for resource, _ in jobs])
        return original(grader, jobs)

    monkeypatch.setattr(gate.Grader, "grade", counted)
    return passes


@pytest.mark.parametrize(
    "gamma,y_m,target,value,s_fit",
    [(0.075, 2.486, "probability", 0.098, 0.169140625),
     (0.334, 11.012, "infidelity", 0.005, 0.266015625)],
)
def test_fit_squeezing_pinned_values(gamma, y_m, target, value, s_fit, grading_passes):
    # the values of a scan over the whole sweep; stopping at the first bracket
    # must not move them.  Both crossings lie in the scan's first block of 16
    # nodes; the bisection's 5 steps are one pass of three tree levels and
    # one of the two that the 1e-3 width still needs; the fitted point is one
    # more pass
    report = fit_squeezing(gamma, y_m, target, value)
    assert report.fitted.s == pytest.approx(s_fit, abs=1e-12)
    assert report.iterations == 5
    assert report.converged
    assert [len(s_values) for s_values in grading_passes] == [16, 7, 3, 1]


def test_fit_builds_one_grading_plan(monkeypatch, grading_passes):
    # the vacuum, the reference cat and the grader are built once per fit,
    # and serve its four grading passes
    plans = []
    original = gate._grading_plan
    monkeypatch.setattr(gate, "_grading_plan", lambda *args: plans.append(1) or original(*args))
    fit_squeezing(0.075, 2.486, "probability", 0.098)
    assert len(plans) == 1
    assert len(grading_passes) == 4


def test_fit_reports_the_squeezing_scan_at_its_s():
    # the fit's curve is squeezing_scan's: its achieved values are that
    # sweep's at the fitted s, to the bit
    report = fit_squeezing(0.334, 11.012, "infidelity", 0.005)
    probability, infidelity = squeezing_scan(0.334, 11.012, [report.fitted.s])
    assert report.achieved_probability == probability[0]
    assert report.achieved_infidelity == infidelity[0]
    assert report.fitted == CubicGateConfig(0.334, 11.012, 0.266015625)


def test_fit_reaches_a_crossing_before_a_node_that_cannot_be_graded(monkeypatch):
    # a grader that fails for s >= 0.3, inside the scan's first block but past
    # the crossing near s = 0.169: the block is graded node by node, and the
    # fit ends before the failing node, as a scan of one node at a time does
    original = gate.Grader.grade

    def failing(grader, jobs):
        if any(resource.s >= 0.3 for resource, _ in jobs):
            raise ZeroProbabilityError("no probability")
        return original(grader, jobs)

    monkeypatch.setattr(gate.Grader, "grade", failing)
    report = fit_squeezing(0.075, 2.486, "probability", 0.098)
    assert report.fitted.s == 0.169140625
    assert report.iterations == 5
    # a target the scan reaches only past the failing node fails there
    with pytest.raises(ZeroProbabilityError):
        fit_squeezing(0.075, 2.486, "probability", 0.5)


def test_fit_bisects_past_a_midpoint_that_cannot_be_graded(monkeypatch, grading_passes):
    # a grader that fails for s in (0.152, 0.155), inside the bracket
    # [0.15, 0.175] that the fit bisects: its first tree pass holds 0.153125,
    # which the walk to the crossing near s = 0.169 never reaches.  That step
    # is graded alone and the fit keeps its s and steps
    counted = gate.Grader.grade

    def failing(grader, jobs):
        if any(0.152 < resource.s < 0.155 for resource, _ in jobs):
            raise ZeroProbabilityError("no probability")
        return counted(grader, jobs)

    monkeypatch.setattr(gate.Grader, "grade", failing)
    report = fit_squeezing(0.075, 2.486, "probability", 0.098)
    assert report.fitted.s == 0.169140625
    assert report.iterations == 5
    assert [len(s_values) for s_values in grading_passes] == [16, 1, 7, 1, 1]


def test_fit_ends_before_the_physical_zero_probability_nodes():
    # at (0.001, 30) P falls below MIN_COLLAPSE_NORM from s of about 0.2 to
    # 0.8, after a crossing of 1e-30 near s = 0.082
    with pytest.raises(ZeroProbabilityError):
        Grader(VACUUM, reference_cat(5, 0.0, GRID)).grade([(CubicPhaseResource(0.001, 0.3), [30.0])])
    report = fit_squeezing(0.001, 30.0, "probability", 1e-30)
    assert report.fitted.s == 0.08242187499999998
    assert report.iterations == 5


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
        p, f = Grader(VACUUM, reference).grade([(CubicPhaseResource(gamma, s), [y_m])])
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
    assert not hasattr(comparison.fock, "wigner")  # a report holds no grid


def test_compare_gates_probability_matched_entry():
    comparison = compare_gates(5, CubicGateConfig(0.075, 2.486, 0.171))
    assert comparison.fock.probability == pytest.approx(comparison.cubic.probability, abs=2e-3)
    assert 15.0 < comparison.infidelity_ratio < 25.0
    assert comparison.fock.copy_spacing == pytest.approx(math.sqrt(11.0), abs=1e-12)
    assert comparison.cubic.copy_spacing == pytest.approx(math.sqrt(11.0), abs=0.01)
