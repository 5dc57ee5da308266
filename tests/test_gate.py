import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catgate import (
    BestPhaseCat,
    CubicPhaseResource,
    FockResource,
    Grid,
    WaveFunction,
    collapse,
    fidelity,
    fourier_transform,
    hermite_values,
    make_fock,
    make_vacuum,
    probability_density,
    probability_scan,
    reference_cat,
)
from catgate.errors import (
    CatGateError,
    GridMismatchError,
    LinearizationDomainError,
    NyquistError,
    ZeroProbabilityError,
)
from catgate import states
from catgate.gate import Grader, _grade_block
from conftest import GRID, KICKED, ODD_GRID, VACUUM

CAT5 = reference_cat(5, 0.0, GRID)


def analytic_vacuum_density(y_m):
    """P(y_m) for vacuum input and n = 0: a Gaussian convolution done in
    closed form, exp(-y_m^2/2)/sqrt(2 pi)."""
    return math.exp(-y_m ** 2 / 2.0) / math.sqrt(2.0 * math.pi)


def fock_density_at_zero(n):
    """Oracle for P(0) with a Fock-n resource on vacuum input:
    (1/(pi 2^n n!)) integral H_n(x)^2 exp(-2 x^2) dx, evaluated exactly by
    Gauss-Hermite quadrature after u = sqrt(2) x."""
    nodes, wts = np.polynomial.hermite.hermgauss(n + 1)
    hn = np.polynomial.hermite.hermval(nodes / math.sqrt(2.0), [0] * n + [1])
    return float(np.sum(wts * hn ** 2)) / (
        np.pi * 2.0 ** n * math.factorial(n) * math.sqrt(2.0)
    )


def brute_force_collapse(n, y_m, grid, x2_half=12.0, n2=2048):
    """Independent oracle: discretize the full two-oscillator state
    psi_in(x1) psi_n(x2) e^{i x1 x2} and project the ancilla onto the
    momentum eigenstate <y_m|."""
    x1 = grid.points
    x2 = np.linspace(-x2_half, x2_half, n2)
    dx2 = x2[1] - x2[0]
    entangled = np.exp(1j * np.outer(x1, x2)) * hermite_values(n, x2)[None, :]
    projected = entangled @ np.exp(-1j * y_m * x2) * dx2 / math.sqrt(2 * math.pi)
    unnorm = make_vacuum(grid).values * projected
    norm = np.trapezoid(np.abs(unnorm) ** 2, dx=grid.spacing)
    return unnorm / math.sqrt(norm), float(norm)


def test_vacuum_resource_gives_squeezed_gaussian():
    result = collapse(VACUUM, FockResource(0), 0.0)
    target = np.exp(-GRID.points ** 2).astype(complex)
    target /= math.sqrt(np.trapezoid(np.abs(target) ** 2, dx=GRID.spacing))
    assert np.max(np.abs(result.psi_out.values - target)) < 1e-10
    assert result.norm_N == pytest.approx(analytic_vacuum_density(0.0), abs=1e-10)


def test_vacuum_density_matches_analytic_curve():
    for y_m in np.arange(-4.0, 4.0 + 1e-9, 0.25):
        value = probability_density(VACUUM, FockResource(0), float(y_m))
        assert abs(value - analytic_vacuum_density(float(y_m))) < 1e-8


def test_density_fock5_matches_quadrature_oracle():
    oracle = fock_density_at_zero(5)
    assert oracle == pytest.approx(0.0981772, abs=1e-7)
    value = probability_density(VACUUM, FockResource(5), 0.0)
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx(0.098, abs=3e-3)


def test_fock5_output_has_node_at_origin():
    vac = make_vacuum(ODD_GRID)
    result = collapse(vac, FockResource(5), 0.0)
    assert abs(result.psi_out.values[ODD_GRID.n_points // 2]) == 0.0
    assert hermite_values(5, np.array([0.0]))[0] == 0.0


def test_norm_matches_density_on_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(0, 11))
        y_m = float(rng.uniform(-4.0, 4.0))
        result = collapse(VACUUM, FockResource(n), y_m)
        assert abs(result.norm_N - probability_density(VACUUM, FockResource(n), y_m)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10), y_m=st.floats(0.0, 4.0))
def test_density_symmetric_in_outcome(n, y_m):
    plus = probability_density(VACUUM, FockResource(n), y_m)
    minus = probability_density(VACUUM, FockResource(n), -y_m)
    assert abs(plus - minus) <= 1e-12 * max(plus, 1e-30)


@pytest.mark.parametrize("n", [1, 2])
def test_scan_integrates_to_one(n):
    ys = np.arange(-12.0, 12.0 + 1e-9, 0.05)
    curve = probability_scan(VACUUM, FockResource(n), ys)
    total = np.trapezoid(curve[:, 1], curve[:, 0])
    assert total == pytest.approx(1.0, abs=1e-4)


def test_scan_fock5_symmetric_and_bounded():
    ys = np.arange(-6.0, 6.0 + 1e-9, 0.1)
    curve = probability_scan(VACUUM, FockResource(5), ys)
    densities = curve[:, 1]
    assert np.max(np.abs(densities - densities[::-1])) < 1e-12
    assert np.max(densities) <= 0.4


def test_scan_vacuum_matches_analytic_everywhere():
    ys = np.arange(-6.0, 6.0 + 1e-9, 0.1)
    curve = probability_scan(VACUUM, FockResource(0), ys)
    expected = np.array([analytic_vacuum_density(y) for y in curve[:, 0]])
    assert np.max(np.abs(curve[:, 1] - expected)) < 1e-8
    assert np.array_equal(curve[:, 0], ys)


@pytest.mark.parametrize("n,y_m", [(1, 0.7), (3, -0.4)])
def test_collapse_matches_two_oscillator_oracle(n, y_m):
    oracle, oracle_norm = brute_force_collapse(n, y_m, GRID)
    result = collapse(VACUUM, FockResource(n), y_m)
    assert np.max(np.abs(result.psi_out.values - oracle)) < 1e-6
    assert result.norm_N == pytest.approx(oracle_norm, abs=1e-8)


def test_closed_form_factor_equals_transform_path():
    # the closed-form (-i)^n psi_n(y_m - x) factor must agree with the
    # generic route through the numerical Fourier transform of |n>
    n = 4
    transformed = fourier_transform(make_fock(n, GRID)).values
    for y_m, flip in ((0.0, True), (64 * GRID.spacing, True)):
        result = collapse(VACUUM, FockResource(n), y_m)
        shift = int(round(y_m / GRID.spacing))
        idx = (GRID.n_points - 1) - np.arange(GRID.n_points) + shift
        valid = (idx >= 0) & (idx < GRID.n_points)
        generic = np.zeros(GRID.n_points, dtype=complex)
        generic[valid] = transformed[idx[valid]]
        unnorm = VACUUM.values * generic
        generic_out = unnorm / math.sqrt(np.trapezoid(np.abs(unnorm) ** 2, dx=GRID.spacing))
        assert np.max(np.abs(result.psi_out.values - generic_out)) < 1e-7


def test_zero_probability_outcome_raises():
    with pytest.raises(ZeroProbabilityError):
        collapse(VACUUM, FockResource(0), 40.0)


@pytest.mark.parametrize("resource", [FockResource(5), CubicPhaseResource(0.3, 0.5)])
def test_zero_state_collapse_raises_zero_probability(resource):
    # an empty support leaves nothing to evaluate, and the norm is still 0
    with pytest.raises(ZeroProbabilityError):
        collapse(WaveFunction(GRID, np.zeros(GRID.n_points)), resource, 0.0)


@pytest.mark.parametrize("scan", [
    lambda psi_in, resource, ys: Grader(psi_in).grade([(resource, ys)]),
    probability_scan,
], ids=["Grader", "probability_scan"])
def test_zero_state_scans_raise_zero_probability(scan):
    with pytest.raises(ZeroProbabilityError):
        scan(WaveFunction(GRID, np.zeros(GRID.n_points)), FockResource(1), [0.0])


@pytest.mark.parametrize("y_m", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("resource", [FockResource(5), CubicPhaseResource(0.3, 0.5)],
                         ids=["fock", "cubic"])
@pytest.mark.parametrize("evaluate", [
    lambda resource, y_m: collapse(VACUUM, resource, y_m),
    lambda resource, y_m: probability_density(VACUUM, resource, y_m),
    lambda resource, y_m: Grader(VACUUM, BestPhaseCat(5)).grade([(resource, [0.0, y_m])]),
    lambda resource, y_m: Grader(VACUUM, CAT5).grade([(resource, [0.0]), (resource, [y_m])]),
], ids=["collapse", "probability_density", "Grader_best_phase", "Grader"])
def test_non_finite_outcome_is_a_value_error(evaluate, resource, y_m):
    """Every gate entry point names a non-finite outcome, where it used to give
    a NaN or zero density, a NaN fidelity or a misleading amplitude error."""
    with pytest.raises(ValueError, match=f"outcome y_m={y_m} is not finite"):
        evaluate(resource, y_m)


@pytest.mark.parametrize("y_m", [sign * 10.0 ** e for e in (10, 100, 200, 300) for sign in (1, -1)])
@pytest.mark.parametrize("resource", [FockResource(0), FockResource(5), CubicPhaseResource(0.3, 0.5),
                                      CubicPhaseResource(0.0, 0.5)], ids=repr)
def test_huge_outcome_is_finite_or_typed_without_warnings(resource, y_m):
    """Far outside every support the factor is an exact 0; no intermediate on
    the way there may overflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(resource.momentum_factor(np.array([y_m])) == 0.0)
        assert probability_density(VACUUM, resource, y_m) == 0.0
        assert np.all(Grader(VACUUM).grade([(resource, [y_m])])[0] == 0.0)
        with pytest.raises(ZeroProbabilityError):
            Grader(VACUUM, CAT5).grade([(resource, [y_m])])
        with pytest.raises(LinearizationDomainError):
            Grader(VACUUM, BestPhaseCat(5)).grade([(resource, [y_m])])
        with pytest.raises(ZeroProbabilityError):
            collapse(VACUUM, resource, y_m)


BOX_RESOURCES = st.one_of(
    st.builds(FockResource, st.integers(0, 64)),
    st.builds(CubicPhaseResource,
              st.one_of(st.sampled_from([0.0, 5e-324, 1e-320]), st.floats(0.0, 1.0)),
              st.floats(0.05, 1.0)),
)
# |y| log-uniform over [1e-300, 1e300], either sign
ANY_OUTCOME = st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
                        st.floats(-300.0, 300.0), st.sampled_from([1.0, -1.0]))


@settings(max_examples=40, deadline=None)
@given(resource=BOX_RESOURCES, y_m=ANY_OUTCOME)
@example(resource=CubicPhaseResource(5e-324, 0.05), y_m=1e300)
@example(resource=CubicPhaseResource(1e-320, 1.0), y_m=-1e-300)
@example(resource=FockResource(64), y_m=-1e300)
def test_any_outcome_is_finite_or_typed_without_warnings(resource, y_m):
    """Over the validated box every gate entry point gives a finite result or
    a typed error, and no intermediate raises a warning."""
    evaluations = {
        "collapse": lambda: collapse(VACUUM, resource, y_m).psi_out.values,
        "probability_density": lambda: probability_density(VACUUM, resource, y_m),
        "Grader": lambda: Grader(VACUUM).grade([(resource, [y_m])])[0],
        "Grader_cat": lambda: np.concatenate(Grader(VACUUM, CAT5).grade([(resource, [y_m])])),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, evaluate in evaluations.items():
            try:
                result = evaluate()
            except CatGateError:
                continue
            assert np.all(np.isfinite(result)), name


# ---------------------------------------------------------------- support trimming

RESOURCES = st.one_of(
    st.builds(FockResource, st.integers(0, 10)),
    st.builds(CubicPhaseResource, st.floats(0.0, 1.0), st.floats(0.05, 1.0)),
)


def outcome_in_bulk(resource, u):
    """An outcome across the resource's bulk for u in [0, 1]: |y| up to 1.5
    past the Hermite turning point, or y ~ 3 gamma x^2 for |x| <~ 1/s."""
    if isinstance(resource, FockResource):
        return (math.sqrt(2 * resource.n + 1) + 1.5) * (2.0 * u - 1.0)
    return -1.5 + (3.0 + 3.0 * resource.gamma / resource.s ** 2) * u


@settings(max_examples=30, deadline=None)
@given(resource=RESOURCES, kicked=st.booleans(), u=st.floats(0.0, 1.0))
@example(resource=CubicPhaseResource(1.0, 0.05), kicked=True, u=0.5)
@example(resource=FockResource(10), kicked=False, u=1.0)
def test_collapse_on_the_support_matches_the_full_grid(resource, kicked, u):
    psi_in = KICKED if kicked else VACUUM
    y_m = outcome_in_bulk(resource, u)
    p = probability_density(psi_in, resource, y_m)
    assume(p > 1e-12)
    result = collapse(psi_in, resource, y_m)
    assert abs(result.norm_N - p) <= 1e-13 * p
    live = psi_in.support()
    assert not np.any(result.psi_out.values[:live.start])
    assert not np.any(result.psi_out.values[live.stop:])


def test_collapse_evaluates_the_resource_on_the_support_only(monkeypatch):
    points = []
    original = states._airy_factor
    monkeypatch.setattr(states, "_airy_factor",
                        lambda *a: points.append(np.size(a[2])) or original(*a))
    collapse(VACUUM, CubicPhaseResource(0.334, 0.241), 11.012)
    assert points == [2128]  # the vacuum's support, of 4096 grid points


@pytest.mark.parametrize("evaluate", [
    lambda resource: collapse(VACUUM, resource, 0.0),
    lambda resource: probability_density(VACUUM, resource, 0.0),
    lambda resource: probability_scan(VACUUM, resource, [0.0]),
    lambda resource: Grader(VACUUM).grade([(resource, [0.0])]),
], ids=["collapse", "probability_density", "probability_scan", "Grader"])
def test_unsupported_resource_type_raises(evaluate):
    """Every entry point of the gate refuses a non-resource with one error."""
    with pytest.raises(TypeError, match="unsupported resource"):
        evaluate("x")


# ---------------------------------------------------------------- graded outcomes
# The grader's strided trapezoid sums are spectrally accurate, so the tests
# below keep their "spectral" names.

def assert_spectral_matches_direct(psi_in, resource, ys, conditioning=0.0):
    """Graded P and F_cat against ``collapse`` (the direct oracle) at each y:
    P to 1e-13 relative plus ``conditioning``, the relative error that
    rounding the factor's argument puts on F^2 at every node, and F_cat to
    1e-13."""
    densities, fidelities = Grader(psi_in, CAT5).grade([(resource, ys)])
    for y_m, p, f in zip(ys, densities, fidelities):
        result = collapse(psi_in, resource, float(y_m))
        assert abs(p - result.norm_N) <= (1e-13 + conditioning) * result.norm_N
        assert abs(f - fidelity(result.psi_out, CAT5)) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 10), kicked=st.booleans(),
       u=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
@example(n=0, kicked=False, u=[0.0, 0.0, 0.0])  # a repeated outcome
def test_spectral_fock_outcomes_match_direct(n, kicked, u):
    half = math.sqrt(2 * n + 1) + 1.5
    assert_spectral_matches_direct(KICKED if kicked else VACUUM, FockResource(n),
                                   half * np.array(u))


@settings(max_examples=12, deadline=None)
@given(gamma=st.floats(0.0, 1.0), s=st.floats(0.05, 1.0), kicked=st.booleans(),
       u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
@example(gamma=1.0, s=0.05, kicked=True, u=[0.0, 0.5, 1.0])  # the widest band: stride 2
@example(gamma=1.0, s=0.25, kicked=False, u=[0.0, 1.0])  # outcomes 48 apart
def test_spectral_cubic_outcomes_match_direct(gamma, s, kicked, u):
    # outcomes across the semiclassical bulk y ~ 3 gamma x^2, |x| <~ 1/s
    ys = -1.5 + (3.0 + 3.0 * gamma / s ** 2) * np.array(u)
    # F oscillates with local momentum k = sqrt(v/(3 gamma)) at v = y - x, and
    # never faster than its band, so rounding v to double precision moves F^2
    # by eps v k of itself: 5e-12 at gamma = 1, y = 1200, in either sum
    resource = CubicPhaseResource(gamma, s)
    v = float(np.max(np.abs(ys))) + 8.0  # past the inputs' support |x| < 8
    k = min(math.sqrt(v / (3.0 * gamma)) if gamma else math.inf,
            resource.band())
    assert_spectral_matches_direct(KICKED if kicked else VACUUM, resource, ys,
                                   np.finfo(float).eps * v * k)


def test_spectral_uniform_axis_agrees_with_node_sums():
    ys = np.arange(-6.0, 6.0 + 1e-9, 0.05)
    order = np.random.default_rng(0).permutation(ys.size)
    p_axis, f_axis = Grader(KICKED, CAT5).grade([(FockResource(4), ys)])
    p_nodes, f_nodes = Grader(KICKED, CAT5).grade([(FockResource(4), ys[order])])
    assert np.max(np.abs(p_axis[order] - p_nodes)) < 1e-13
    assert np.max(np.abs(f_axis[order] - f_nodes) * p_nodes) < 1e-13


def test_spectral_window_edge_guard():
    # on 64 points the transform of |vacuum|^2 is still 1e-4 at pi/h, so the
    # integrand has not decayed inside the grid's Nyquist limit
    coarse = Grid(-16.0, 16.0, 64)
    with pytest.raises(NyquistError, match="Nyquist limit"):
        probability_scan(make_vacuum(coarse), FockResource(0), [0.0, 0.5])


def test_spectral_single_node_input_is_a_nyquist_error():
    # one live node: a flat spectrum, which no grid sum resolves
    spike = np.zeros(GRID.n_points)
    spike[100] = 1.0
    with pytest.raises(NyquistError, match="Nyquist limit"):
        Grader(WaveFunction(GRID, spike)).grade([(FockResource(1), [0.0])])


def test_spectral_density_outside_support_and_never_negative():
    ys = np.arange(-40.0, 40.0 + 1e-9, 0.01)
    densities = probability_scan(VACUUM, FockResource(5), ys)[:, 1]
    assert np.all(densities >= 0.0)
    assert np.max(densities[np.abs(ys) > 20.0]) < 1e-12
    assert np.all(probability_scan(VACUUM, FockResource(5), [-1e6, 1e6])[:, 1] == 0.0)


def test_spectral_reference_must_share_the_grid():
    with pytest.raises(GridMismatchError):
        Grader(VACUUM, reference_cat(5, 0.0, ODD_GRID)).grade([(FockResource(5), [0.0])])


def test_spectral_fidelity_at_impossible_outcome_raises():
    densities, _ = Grader(VACUUM).grade([(FockResource(0), [0.0, 40.0])])
    assert densities[1] == 0.0
    with pytest.raises(ZeroProbabilityError, match="y_m=40.0"):
        Grader(VACUUM, CAT5).grade([(FockResource(0), [0.0, 40.0])])


@pytest.mark.parametrize("rows", [2, 7, 64])
@pytest.mark.parametrize("reference", [None, CAT5, BestPhaseCat(5)], ids=["none", "cat", "best_phase"])
def test_grade_block_sums_a_row_alone_as_in_a_block(rows, reference):
    # the grader's blocks hold as many rows as fit: a row's sums do not
    # depend on how many rows share its block, nor where it sits there
    resource = FockResource(5)
    ys = np.linspace(-3.0, 3.0, rows)
    grader = Grader(KICKED, reference)
    x, weights = grader.x[::3], grader.rows[:, ::3] * 3
    amplitude = resource.amplitude((ys[:, None] - x).ravel()).reshape(rows, x.size)
    p, f = _grade_block(amplitude, weights, reference, ys, x, resource)
    for i in range(rows):
        p_i, f_i = _grade_block(amplitude[i:i + 1], weights, reference, ys[i:i + 1], x, resource)
        assert p_i[0] == p[i]
        assert f_i is None if reference is None else f_i[0] == f[i]


MIXED_JOBS = [(FockResource(5), np.linspace(-3.0, 3.0, 2000)),
              (FockResource(2), np.linspace(-2.0, 2.0, 3000)),
              (CubicPhaseResource(0.3, 0.5), np.linspace(0.0, 4.0, 50))]


@pytest.mark.parametrize("psi_in, reference, jobs", [
    (KICKED, None, MIXED_JOBS),
    (KICKED, CAT5, MIXED_JOBS),
    # on the vacuum the overlap row sets the band; the smallest |y| of a job
    # sets its largest p_plus, and the other job's must not widen its band
    (VACUUM, BestPhaseCat(5), [(FockResource(5), np.linspace(2.5, 3.0, 200)),
                               (FockResource(3), np.linspace(-0.5, 0.5, 300))]),
], ids=["none", "cat", "best_phase"])
def test_grader_grades_each_job_as_alone(psi_in, reference, jobs):
    # one call packs runs of jobs with different strides into shared Fock
    # blocks, and a cubic job into its own; every row keeps the bits of its
    # job graded alone
    p, f = Grader(psi_in, reference).grade(jobs)
    alone = [Grader(psi_in, reference).grade([job]) for job in jobs]
    assert np.array_equal(p, np.concatenate([p_job for p_job, _ in alone]))
    assert f is None if reference is None else np.array_equal(f, np.concatenate([f_job for _, f_job in alone]))


@pytest.mark.parametrize("resource", [FockResource(5), CubicPhaseResource(0.3, 0.5)],
                         ids=["fock", "cubic"])
@pytest.mark.parametrize("bad_job, error, message", [
    (lambda resource: (resource, 0.5), ValueError, "1-D"),
    (lambda resource: (resource, [[0.0, 1.0]]), ValueError, "1-D"),
    (lambda resource: ("fock", [0.0]), TypeError, "unsupported resource"),
    (lambda resource: (resource, [0.0, math.nan]), ValueError, "not finite"),
], ids=["scalar", "2-D", "not_a_resource", "nan"])
def test_grader_checks_every_job_before_grading_any(monkeypatch, resource, bad_job, error, message):
    # a good job first: the bad one after it stops the call before any amplitude
    calls = []
    original = type(resource).amplitudes
    monkeypatch.setattr(type(resource), "amplitudes",
                        classmethod(lambda cls, *a: calls.append(a) or original(*a)))
    with pytest.raises(error, match=message):
        Grader(VACUUM, CAT5).grade([(resource, [0.0]), bad_job(resource)])
    assert calls == []
    Grader(VACUUM, CAT5).grade([(resource, [0.0])])
    assert len(calls) == 1  # the spy sees the good job graded alone


@pytest.mark.parametrize("reference", ["cat", 5])
def test_grader_refuses_a_reference_that_is_not_a_state(reference):
    with pytest.raises(TypeError, match="unsupported reference"):
        Grader(VACUUM, reference)


@pytest.mark.parametrize("count,spacing", [(400_000, "axis"), (40_000, "nodes")])
def test_spectral_memory_does_not_grow_with_outcomes(count, spacing):
    # one outcome-by-node matrix for 400k outcomes would hold about 600 MiB
    ys = np.linspace(-6.0, 6.0, count)
    if spacing == "nodes":
        ys[1::2] += 1e-3
    tracemalloc.start()
    try:
        Grader(VACUUM, CAT5).grade([(FockResource(5), ys)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 2 * ys.nbytes < 16 * 2 ** 20  # less the two result columns


def test_best_phase_memory_does_not_grow_with_outcomes():
    # the cats of 400k outcomes on the grader's ~107 nodes would hold 340 MiB
    ys = np.linspace(-3.0, 3.0, 400_000)
    tracemalloc.start()
    try:
        Grader(VACUUM, BestPhaseCat(5)).grade([(FockResource(5), ys)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 2 * ys.nbytes < 16 * 2 ** 20  # less the two result columns


# ---------------------------------------------------------------- pinned bits
PINNED_RESOURCES = [FockResource(n) for n in (0, 1, 2, 3, 5, 64)] + [CubicPhaseResource(0.3, 0.5)]
# one grading call of mixed jobs; the cubic outcomes stay in BestPhaseCat(5)'s domain
PINNED_JOBS = [(r, np.linspace(-3.0, 3.0, 41)) for r in PINNED_RESOURCES[:-1]]
PINNED_JOBS.append((PINNED_RESOURCES[-1], np.linspace(0.0, 3.0, 25)))


BIT_PINS = {
    "grade_none": "a78b9b5f41c9a77d",
    "grade_cat": "6e143f4103fe2131",
    "grade_best_phase": "bb84c49fd82b5c9a",
    "collapse_FockResource(n=0)": "facfc5df79474705",
    "density_FockResource(n=0)": "156a6899a44868ab",
    "collapse_FockResource(n=1)": "9eb42becf24e2e28",
    "density_FockResource(n=1)": "8612ee8beae1f02b",
    "collapse_FockResource(n=2)": "688807e14c602404",
    "density_FockResource(n=2)": "8ef8d7ef5a038c12",
    "collapse_FockResource(n=3)": "5320e4d6212800cf",
    "density_FockResource(n=3)": "6da63266b26d018e",
    "collapse_FockResource(n=5)": "8d6805dfc34c8146",
    "density_FockResource(n=5)": "38e4284e449324aa",
    "collapse_FockResource(n=64)": "873c2632c7efa988",
    "density_FockResource(n=64)": "cd28d022d3302243",
    "collapse_CubicPhaseResource(gamma=0.3, s=0.5)": "1c02cc27be3f71f1",
    "density_CubicPhaseResource(gamma=0.3, s=0.5)": "b9e66de76a0b1a40",
}


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()[:16]


def test_gate_values_keep_their_bits():
    # P and F of mixed jobs under each kind of reference, and each
    # resource's collapsed state and full-grid density, to the last bit
    digests = {}
    for name, reference in (("none", None), ("cat", CAT5), ("best_phase", BestPhaseCat(5))):
        p, f = Grader(KICKED, reference).grade(PINNED_JOBS)
        digests[f"grade_{name}"] = _digest(p) if f is None else _digest(p, f)
    for resource, y_m in zip(PINNED_RESOURCES, (0.7, -0.4, 1.1, 0.3, -2.0, 2.5, 1.5)):
        result = collapse(KICKED, resource, y_m)
        digests[f"collapse_{resource!r}"] = _digest(result.psi_out.values, result.norm_N)
        digests[f"density_{resource!r}"] = _digest(probability_density(KICKED, resource, y_m))
    assert digests == BIT_PINS
