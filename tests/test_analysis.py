import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial, hermite, hermite_e

from catgate import (
    AcceptanceWindow,
    BestPhaseCat,
    CatParams,
    CubicGateConfig,
    FockResource,
    Grid,
    WaveFunction,
    added_factor,
    collapse,
    default_grid,
    fidelity,
    fidelity_cat,
    fidelity_coh,
    fidelity_mix,
    fourier_transform,
    make_cat,
    make_vacuum,
    probability_density,
    reference_cat,
    wigner,
)
from catgate import states
from catgate.analysis import default_wigner_axes
from catgate.errors import GridSupportError, LinearizationDomainError
from catgate.gate import grade_outcomes

GRID = default_grid()
ODD_GRID = Grid(-16.0, 16.0, 4097)
VACUUM = make_vacuum(GRID)
ODD_VACUUM = make_vacuum(ODD_GRID)
# the displaced, squeezed and momentum-kicked input of test_gate
KICKED = WaveFunction(
    GRID, np.exp(-(GRID.points - 0.7) ** 2 / (2 * 0.6 ** 2) + 1.3j * GRID.points)
).normalized()


# ---------------------------------------------------------------- wigner

def test_vacuum_wigner_peak_and_positivity():
    w = wigner(ODD_VACUUM)
    i0 = w.x_axis.n_points // 2
    assert w.x_axis.points[i0] == 0.0
    assert w.values[i0, i0] == pytest.approx(1.0 / math.pi, abs=1e-8)
    assert w.values.min() > -1e-12
    assert w.normalization() == pytest.approx(1.0, abs=1e-6)


def test_odd_cat_wigner_origin_value():
    cat = make_cat(CatParams(math.sqrt(11.0), 0.0, "odd"), ODD_GRID)
    w = wigner(cat)
    i0 = w.x_axis.n_points // 2
    assert w.values[i0, i0] == pytest.approx(-1.0 / math.pi, abs=1e-3)
    assert w.values[i0, i0] == pytest.approx(-1.0 / math.pi, abs=1e-6)


def test_wigner_marginals_of_collapsed_state():
    result = collapse(VACUUM, FockResource(5), 0.0)
    w = wigner(result.psi_out)
    position = np.abs(result.psi_out.values[::8]) ** 2
    assert np.max(np.abs(w.position_marginal() - position)) < 1e-5
    momentum = np.abs(fourier_transform(result.psi_out).values[::8]) ** 2
    assert np.max(np.abs(w.momentum_marginal() - momentum)) < 1e-5
    assert w.normalization() == pytest.approx(1.0, abs=1e-4)
    assert w.values.min() >= -1.0 / math.pi - 1e-3
    assert w.imag_residue < 1e-10


def test_collapsed_state_wigner_structure():
    # two positive lobes near p = +-3.3 and interference fringes with deep
    # negativity around the origin
    out = collapse(ODD_VACUUM, FockResource(5), 0.0).psi_out
    w = wigner(out, y_axis=Grid(-6.0, 6.0, 385))
    i0 = w.x_axis.n_points // 2
    p = w.y_axis.points
    assert w.values[i0, (p > 2.8) & (p < 3.8)].max() > 0.1
    assert w.values[i0, (p < -2.8) & (p > -3.8)].max() > 0.1
    assert w.values[i0, np.abs(p) < 1.0].min() < -0.25


def test_wigner_axis_errors():
    with pytest.raises(GridSupportError):
        wigner(VACUUM, x_axis=Grid(-20.0, 20.0, 16))
    with pytest.raises(GridSupportError):
        wigner(VACUUM, x_axis=Grid(-1.0, 1.0, 17))  # nodes off the grid lattice


def _direct_wigner(psi, x_axis, y_axis):
    """Reference direct sum: each x row's 2N-1 offset products against a
    dense (2N-1) x M exp(2 i y z) kernel.  Returns (values, imag_residue)."""
    grid = psi.grid
    n, h = grid.n_points, grid.spacing
    idx = np.rint((x_axis.points - grid.x_min) / h).astype(int)
    offsets = np.arange(-(n - 1), n)
    padded = np.zeros(3 * n, dtype=np.complex128)
    padded[n:2 * n] = psi.values
    kernel = np.exp(2j * np.outer(offsets * h, y_axis.points))
    values = np.empty((len(idx), y_axis.n_points))
    imag_residue = 0.0
    for row, i in enumerate(idx):
        products = np.conj(padded[n + i + offsets]) * padded[n + i - offsets]
        transform = (products @ kernel) * (h / np.pi)
        imag_residue = max(imag_residue, float(np.max(np.abs(transform.imag))))
        values[row] = transform.real
    return values, imag_residue


def _node_axis(start, count):
    """x axis of ``count`` consecutive nodes of GRID from node ``start``."""
    return Grid(float(GRID.points[start]), float(GRID.points[start + count - 1]), count)


@pytest.mark.parametrize("case", ["vacuum", "fock5_ym2", "cubic_02b_axis",
                                  "vacuum_edges", "cubic_02b_edges", "compact_edges"])
def test_wigner_matches_direct_sum(case):
    y_axis = None
    if case.startswith("vacuum"):
        psi = VACUUM
    elif case == "compact_edges":
        # 40 random complex amplitudes: the short-reach rows are not tails
        values = np.zeros(GRID.n_points, dtype=complex)
        values[2000:2040] = np.random.default_rng(0).normal(size=(40, 2)) @ [1.0, 1j]
        psi = WaveFunction(GRID, values)
    elif case == "fock5_ym2":
        psi, y_axis = collapse(VACUUM, FockResource(5), 2.0).psi_out, Grid(-6.0, 6.0, 385)
    else:
        # the 02b state, whose support is asymmetric
        cfg = CubicGateConfig(0.334, 11.012, 0.241)
        psi = collapse(VACUUM, cfg.resource, cfg.y_m).psi_out
        if case == "cubic_02b_axis":
            # the 02b axis: its nodes are off the default momentum lattice
            y_axis = Grid(2.5, 4.0, 601)
    x_axes = [None]
    if case.endswith("_edges"):
        # stride-1 axes over the first and the last 16 support nodes and two
        # nodes outside: rows of reach 0, 1, 2, ... from either end, and none
        live = psi.support()
        x_axes = [_node_axis(live.start - 2, 18), _node_axis(live.stop - 16, 18)]
    for x_axis in x_axes:
        w = wigner(psi, x_axis, y_axis)
        values, direct_residue = _direct_wigner(psi, w.x_axis, w.y_axis)
        assert direct_residue <= 1e-12
        assert np.max(np.abs(w.values - values)) <= 1e-12
        assert w.imag_residue <= 1e-12


def test_zero_state_wigner_is_zero():
    w = wigner(WaveFunction(GRID, np.zeros(GRID.n_points)))
    assert w.values.shape == (512, 512)
    assert not np.any(w.values) and w.imag_residue == 0.0


def test_wigner_rows_outside_the_support_are_exactly_zero():
    # the default x axis spans the whole grid, the vacuum's support |x| < 8.3
    w = wigner(VACUUM)
    live = VACUUM.support()
    x = w.x_axis.points
    outside = (x < GRID.points[live.start]) | (x > GRID.points[live.stop - 1])
    assert np.count_nonzero(outside) == 246
    assert not np.any(w.values[outside])
    assert np.all(np.any(w.values[~outside], axis=1))


def test_wigner_memory_does_not_grow_with_momentum_axis():
    # a dense (2N-1) x M kernel alone would be 256 MiB here; the result
    # itself is 512 x 2049 doubles, 8 MiB
    tracemalloc.start()
    try:
        wigner(VACUUM, y_axis=Grid(-16.0, 16.0, 2049))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_wigner_custom_momentum_axis():
    w = wigner(ODD_VACUUM, y_axis=Grid(-2.0, 2.0, 101))
    peak = w.values[w.x_axis.n_points // 2, 50]
    assert w.y_axis.points[50] == 0.0
    assert peak == pytest.approx(1.0 / math.pi, abs=1e-8)


# ---------------------------------------------------------------- fidelities

@settings(max_examples=15, deadline=None)
@given(phase=st.floats(0.0, 2 * math.pi), n=st.integers(0, 8))
def test_fidelity_phase_invariance_and_symmetry(phase, n):
    from catgate import hermite_function

    a = hermite_function(n, GRID)
    b = WaveFunction(
        GRID,
        (0.8 * hermite_function(n, GRID).values + 0.6 * hermite_function(1, GRID).values),
    )
    b = b.normalized()
    rotated = WaveFunction(GRID, np.exp(1j * phase) * a.values)
    f_ab = fidelity(a, b)
    assert 0.0 <= f_ab <= 1.0
    assert fidelity(rotated, b) == pytest.approx(f_ab, abs=1e-12)
    assert fidelity(b, a) == pytest.approx(f_ab, abs=1e-12)


def test_fidelity_self_is_one():
    cat = make_cat(CatParams(math.sqrt(11.0), 0.0, "odd"), GRID)
    assert fidelity(cat, cat) == pytest.approx(1.0, abs=1e-12)


def test_headline_fock5_infidelity():
    result = collapse(VACUUM, FockResource(5), 0.0)
    inf_cat = 1.0 - fidelity_cat(result.psi_out, 5)
    assert inf_cat == pytest.approx(0.005, abs=2e-3)
    # the two measures coincide at y_m = 0: same reference state
    assert fidelity_coh(result.psi_out, 5, 0.0) == pytest.approx(
        fidelity_cat(result.psi_out, 5), abs=1e-14
    )


def test_fidelity_coh_domain_error():
    result = collapse(VACUUM, FockResource(5), 0.0)
    with pytest.raises(LinearizationDomainError):
        fidelity_coh(result.psi_out, 5, 4.0)


@pytest.mark.parametrize("n", range(11))
def test_best_phase_grader_matches_collapse_and_fidelity_coh(n):
    # the outcomes of scan cohfid, the last one included; both parities
    ys = np.arange(0.0, 0.98 * math.sqrt(2 * n + 1), 0.05)
    _, batched = grade_outcomes(VACUUM, FockResource(n), ys, BestPhaseCat(n))
    for y_m, f in zip(ys.tolist(), batched):
        result = collapse(VACUUM, FockResource(n), y_m)
        assert abs(f - fidelity_coh(result.psi_out, n, y_m)) <= 1e-12


def test_best_phase_grader_takes_any_input():
    # a kicked input is complex and narrower than the cat: the cat's norm
    # must not be cut to the input's support
    ys = np.array([-1.7, -0.3, 0.0, 0.9, 2.2])
    _, batched = grade_outcomes(KICKED, FockResource(4), ys, BestPhaseCat(4))
    for y_m, f in zip(ys.tolist(), batched):
        result = collapse(KICKED, FockResource(4), y_m)
        assert abs(f - fidelity_coh(result.psi_out, 4, y_m)) <= 1e-12


def test_best_phase_grader_at_zero_outcome_is_the_cat_fidelity():
    _, [f] = grade_outcomes(VACUUM, FockResource(5), [0.0], BestPhaseCat(5))
    result = collapse(VACUUM, FockResource(5), 0.0)
    assert f == pytest.approx(fidelity_cat(result.psi_out, 5), abs=1e-14)


@pytest.mark.parametrize("n, ys, bad", [(5, [0.0, 1.0, -4.0], "-4.0"), (0, [0.5, 1.0], "1.0")])
def test_best_phase_domain_error_comes_before_any_grading(monkeypatch, n, ys, bad):
    calls = []
    monkeypatch.setattr(states, "hermite_values", lambda *a: calls.append(a))
    with pytest.raises(LinearizationDomainError, match=f"y_m={bad} "):
        grade_outcomes(VACUUM, FockResource(n), ys, BestPhaseCat(n))
    assert calls == []


def test_cat_fidelity_even_in_outcome():
    for y_m in (0.4, 0.8, 1.3):
        plus = fidelity_cat(collapse(VACUUM, FockResource(5), y_m).psi_out, 5)
        minus = fidelity_cat(collapse(VACUUM, FockResource(5), -y_m).psi_out, 5)
        assert plus == pytest.approx(minus, abs=1e-10)


def test_fixed_reference_degrades_faster_than_best_phase():
    # the fixed-cat measure collapses as the relative phase rotates with
    # y_m, while the phase-tracking measure stays high
    for y_m in (0.5, 1.5):
        out = collapse(VACUUM, FockResource(5), y_m).psi_out
        assert fidelity_coh(out, 5, y_m) > 0.9
        assert fidelity_cat(out, 5) < 0.01


def fock5_lobe_peak():
    """The peak of W(0, p) for the n = 5, y_m = 0 output of a vacuum input,
    psi ~ H5(x) exp(-x^2), in closed form.  psi is real and odd, so
    W(0, p) ~ -integral H5(z)^2 exp(-2 z^2) cos(2 p z) dz, and term by term
    integral z^(2m) exp(-2 z^2 + 2 i p z) dz
        = sqrt(pi/2) (-1/4)^m He_2m(p) exp(-p^2/2),
    so W(0, p) ~ -r(p) exp(-p^2/2) for a polynomial r, with its extrema at the
    roots of r' - p r."""
    h5 = Polynomial(hermite.herm2poly([0] * 5 + [1]))
    even = (h5 * h5).coef[::2]
    series = np.zeros(2 * even.size - 1)
    series[::2] = even * (-0.25) ** np.arange(even.size)
    r = Polynomial(hermite_e.herme2poly(series))
    roots = (r.deriv() - Polynomial([0.0, 1.0]) * r).roots()
    [peak] = [z.real for z in roots if abs(z.imag) < 1e-9 and 3.0 < z.real < 3.5]
    return peak


def x0_row_peak(psi):
    """The peak of W(0, p) on [3.2, 3.3]: the largest of 201 nodes, refined
    by a parabola through it and its neighbours."""
    x_axis, _ = default_wigner_axes(ODD_GRID)
    i0 = x_axis.n_points // 2
    assert x_axis.points[i0] == 0.0
    y_axis = Grid(3.2, 3.3, 201)
    row = wigner(psi, x_axis, y_axis).values[i0]
    j = int(np.argmax(row))
    vertex = 0.5 * (row[j - 1] - row[j + 1]) / (row[j - 1] - 2.0 * row[j] + row[j + 1])
    return y_axis.points[j] + vertex * y_axis.spacing


def lobe_peaks_02b(psi):
    """Criterion 02b's estimator: the largest node of W over each lobe, on
    every 8th x node and 601 p nodes, refined by a parabola in p."""
    pts = ODD_GRID.points[::8]
    x_axis = Grid(float(pts[0]), float(pts[-1]), len(pts))
    peaks = []
    for lo, hi in ((2.5, 4.0), (-4.0, -2.5)):
        y_axis = Grid(lo, hi, 601)
        w = wigner(psi, x_axis, y_axis).values
        i, j = np.unravel_index(np.argmax(w), w.shape)
        row = w[i]
        vertex = 0.5 * (row[j - 1] - row[j + 1]) / (row[j - 1] - 2.0 * row[j] + row[j + 1])
        peaks.append(y_axis.points[j] + vertex * y_axis.spacing)
    return peaks


def test_fock5_lobe_peak_matches_the_closed_form():
    # criterion 02b's measured value, independent of the grid and the
    # transform: 3.244403 is the peak of W(0, p) at 30-digit mpmath
    peak = fock5_lobe_peak()
    assert abs(peak - 3.244403) <= 5e-6
    out = collapse(ODD_VACUUM, FockResource(5), 0.0).psi_out
    assert abs(x0_row_peak(out) - peak) <= 1e-7


def test_semiclassical_output_explains_the_lobe_shift():
    # criterion 02b's reference is the linearized copy shift sqrt(11) = 3.3166,
    # where an ideal cat's lobe peaks (3.3167).  The paper's own semiclassical
    # output, the vacuum times both copies with their full phase phi(n, z),
    # peaks at 3.2361, near the exact 3.2444: the inward shift comes from the
    # curvature of the copy phase, which the linearized cat drops
    values, _ = added_factor(5, 0.0, ODD_GRID.points)
    semiclassical = WaveFunction(ODD_GRID, ODD_VACUUM.values * values).normalized()
    assert abs(x0_row_peak(semiclassical) - 3.23607) <= 5e-6
    linearized = reference_cat(5, 0.0, ODD_GRID)
    exact = collapse(ODD_VACUUM, FockResource(5), 0.0).psi_out
    for psi, peak in ((linearized, 3.3167), (semiclassical, 3.2361), (exact, 3.2444)):
        plus, minus = lobe_peaks_02b(psi)
        assert abs(plus - peak) <= 5e-5 and abs(minus + peak) <= 5e-5
    assert abs(lobe_peaks_02b(semiclassical)[0] - 3.23607) <= 5e-6


# ---------------------------------------------------------------- acceptance window

def test_window_validation():
    with pytest.raises(ValueError):
        AcceptanceWindow(0.0)
    with pytest.raises(ValueError):
        fidelity_mix(5, AcceptanceWindow(2.1 * math.sqrt(11.0)), VACUUM)


def test_mix_fidelity_degenerate_window():
    f_mix, p_mix = fidelity_mix(5, AcceptanceWindow(1e-6), VACUUM)
    f_cat0 = fidelity_cat(collapse(VACUUM, FockResource(5), 0.0).psi_out, 5)
    assert abs(f_mix - f_cat0) < 1e-8
    assert p_mix == pytest.approx(probability_density(VACUUM, FockResource(5), 0.0) * 1e-6, rel=1e-4)


def test_mix_probability_linear_for_small_windows():
    p0 = probability_density(VACUUM, FockResource(5), 0.0)
    for d in (0.1, 0.2):
        _, p_mix = fidelity_mix(5, AcceptanceWindow(d), VACUUM)
        assert p_mix == pytest.approx(p0 * d, rel=0.02)


def test_mix_infidelity_grows_with_window():
    values = []
    for d in np.linspace(0.2, 1.4, 7):
        f_mix, _ = fidelity_mix(5, AcceptanceWindow(float(d)), VACUUM)
        values.append(1.0 - f_mix)
    assert all(b > a for a, b in zip(values, values[1:]))


def widest_window(n):
    return 2.0 * math.sqrt(2 * n + 1)


@pytest.mark.parametrize("n, d", [
    (5, 2.0),
    (22, widest_window(22)),
    (30, widest_window(30)),
    (64, widest_window(64) * (1.0 - 1e-12)),
], ids=["n5-d2", "n22-widest", "n30-widest", "n64-widest"])
@pytest.mark.parametrize("kicked", [False, True], ids=["vacuum", "kicked"])
def test_mix_matches_a_512_node_rule(kicked, n, d):
    # from n = 22 on, the widest window needs more than 64 nodes
    psi_in = KICKED if kicked else VACUUM
    nodes, weights = np.polynomial.legendre.leggauss(512)
    densities, fidelities = grade_outcomes(psi_in, FockResource(n), 0.5 * d * nodes,
                                           reference_cat(n, 0.0, GRID))
    p_rule = 0.5 * d * float(np.sum(weights * densities))
    f_rule = 0.5 * d * float(np.sum(weights * densities * fidelities)) / p_rule
    f_mix, p_mix = fidelity_mix(n, AcceptanceWindow(d), psi_in)
    assert abs(f_mix - f_rule) <= 1e-12
    assert abs(p_mix - p_rule) <= 1e-12
