import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial, hermite, hermite_e

from catgate import (
    BestPhaseCat,
    CatParams,
    CubicGateConfig,
    FockResource,
    Grid,
    WaveFunction,
    added_factor,
    collapse,
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
from catgate import analysis, states
from catgate.analysis import WignerRows, strided_axis
from catgate.errors import GridSupportError, LinearizationDomainError
from catgate.gate import Grader
from catgate.numerics import BLOCK_BYTES, _offset_dft
from conftest import GRID, KICKED, ODD_GRID, VACUUM

ODD_VACUUM = make_vacuum(ODD_GRID)


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


def test_wigner_momentum_axis_defaults_to_the_x_axis():
    axis = strided_axis(GRID, 16)
    w = wigner(VACUUM, x_axis=axis)
    assert w.x_axis == axis and w.y_axis == axis
    w = wigner(VACUUM)
    assert w.x_axis == w.y_axis == strided_axis(GRID)


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


def _reach_sorted_wigner(psi, x_axis, y_axis):
    """The bits' oracle: the support's rows sorted by reach and transformed
    in blocks of ``BLOCK_BYTES``, each at its largest reach, as one batch a
    block.  Returns (values, imag_residue)."""
    grid, live = psi.grid, psi.support()
    n, h, m = live.stop - live.start, grid.spacing, y_axis.n_points
    idx = np.rint((x_axis.points - grid.x_min) / h).astype(int)
    values = np.zeros((len(idx), m))
    rows = np.flatnonzero((idx >= live.start) & (idx < live.stop))
    padded = np.zeros(3 * n, dtype=np.complex128)
    padded[n:2 * n] = psi.values[live]
    offset = idx[rows] - live.start
    reach = np.minimum(offset, n - 1 - offset)
    order = np.argsort(reach, kind="stable")
    rows, offset, reach = rows[order], offset[order], reach[order]
    block = max(1, BLOCK_BYTES // (16 * (2 * n + m)))
    imag_residue = 0.0
    for start in range(0, rows.size, block):
        chunk = slice(start, start + block)
        k = int(reach[chunk][-1])
        gather = n - k + offset[chunk, None] + np.arange(2 * k + 1)
        products = np.conj(padded[gather]) * padded[gather[:, ::-1]]
        transform = _offset_dft(products, 2.0 * k * h, -2.0 * h, y_axis.x_min, y_axis.spacing, m)
        transform *= h / np.pi
        imag_residue = max(imag_residue, float(np.max(np.abs(transform.imag))))
        values[rows[chunk]] = transform.real
    return values, imag_residue


def _stream_case(case):
    """(psi, x_axis, y_axis) of a named stream case."""
    if case == "vacuum":
        return VACUUM, strided_axis(GRID), strided_axis(GRID)
    if case.startswith("cubic"):
        cfg = {"cubic_06a": CubicGateConfig(0.075, 2.486, 0.171),
               "cubic_02b": CubicGateConfig(0.334, 11.012, 0.241)}[case]
        psi = collapse(VACUUM, cfg.resource, cfg.y_m).psi_out
        return psi, strided_axis(GRID), strided_axis(GRID)
    y_m = {"fock5_ym0": 0.0, "fock5_ym1": 1.0, "fock5_ym2": 2.0}.get(case, 0.0)
    psi = collapse(VACUUM, FockResource(5), y_m).psi_out
    if case == "stride2":
        return psi, strided_axis(GRID, 2), strided_axis(GRID, 2)
    if case == "paxis":
        # the --paxis of the momentum-lobe plots: its nodes are off the x lattice
        return psi, strided_axis(GRID), Grid(-6.0, 6.0, 385)
    return psi, strided_axis(GRID), strided_axis(GRID)


STREAM_CASES = ["fock5_ym0", "fock5_ym1", "fock5_ym2", "cubic_06a", "cubic_02b", "vacuum",
                "stride2", "paxis"]


@pytest.mark.parametrize("case", STREAM_CASES)
def test_wigner_rows_keep_the_bits_of_the_reach_sorted_blocks(case):
    # the stream gives every x row once, in x order, with the bits of its
    # reach-sorted block; wigner() is the same stream collected
    psi, x_axis, y_axis = _stream_case(case)
    rows = WignerRows(psi, x_axis, y_axis)
    n = psi.support().stop - psi.support().start
    batch = BLOCK_BYTES // (16 * (2 * n + y_axis.n_points))
    blocks, residues, zero_rows = [], [], 0
    for values, residue in rows:
        assert values.shape[1] == y_axis.n_points and 1 <= len(values) <= batch
        if values.strides == (0, 0):  # rows outside the support hold no memory
            assert not np.any(values) and residue == 0.0
            zero_rows += len(values)
        blocks.append(values.copy())
        residues.append(residue)
    live = psi.support()
    x = x_axis.points
    outside = (x < GRID.points[live.start]) | (x > GRID.points[live.stop - 1])
    assert zero_rows == np.count_nonzero(outside)
    streamed = np.concatenate(blocks)
    expected, expected_residue = _reach_sorted_wigner(psi, x_axis, y_axis)
    assert streamed.tobytes() == expected.tobytes()
    assert max(residues) == expected_residue
    w = wigner(psi, x_axis, y_axis)
    assert w.values.tobytes() == expected.tobytes() and w.imag_residue == expected_residue


@pytest.mark.parametrize("case", STREAM_CASES)
def test_wigner_summary_is_the_reductions_of_the_collected_grid(case):
    # the summary the stream gathers, against reductions of the whole array:
    # bit for bit, but the momentum marginal, a running sum over the blocks
    psi, x_axis, y_axis = _stream_case(case)
    rows = WignerRows(psi, x_axis, y_axis)
    values = np.concatenate([block.copy() for block, _ in rows])
    summary = rows.summary
    position = np.trapezoid(values, dx=y_axis.spacing, axis=1)
    assert summary.values is None
    assert summary.position_marginal().tobytes() == position.tobytes()
    assert summary.normalization() == float(np.trapezoid(position, dx=x_axis.spacing))
    assert (summary.min_value, summary.max_value) == (values.min(), values.max())
    assert summary.imag_residue == _reach_sorted_wigner(psi, x_axis, y_axis)[1]
    momentum = np.trapezoid(values, dx=x_axis.spacing, axis=0)
    assert np.max(np.abs(summary.momentum_marginal() - momentum)) <= 1e-14


def _summary_bits(summary):
    return (summary.position_marginal().tobytes(), summary.momentum_marginal().tobytes(),
            summary.normalization(), summary.min_value, summary.max_value, summary.imag_residue)


def test_wigner_summary_belongs_to_a_finished_pass():
    # every pass gathers its own summary from nothing, so a reused stream
    # counts no marginal twice; a pass left after one block leaves none
    psi, x_axis, y_axis = _stream_case("fock5_ym1")
    rows = WignerRows(psi, x_axis, y_axis)
    assert rows.summary is None
    bits = []
    for _ in range(2):
        for _ in rows:
            pass
        bits.append(_summary_bits(rows.summary))
    assert bits[0] == bits[1]
    assert _summary_bits(wigner(psi, x_axis, y_axis)) == bits[0]
    next(iter(rows))
    assert rows.summary is None


@pytest.mark.parametrize("y_axis", [None, Grid(-16.0, 16.0, 2049)], ids=["default", "m2049"])
def test_wigner_memory_does_not_grow_with_momentum_axis(y_axis):
    # a dense (2N-1) x M kernel alone would be 256 MiB at m = 2049; the
    # result is 512 x m doubles, and a pass holds at most two batches' work
    # buffers of about 2 MiB, the consumer's and the worker's
    tracemalloc.start()
    try:
        w = wigner(VACUUM, y_axis=y_axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < w.values.nbytes + 4 * 2 ** 20


def _one_block(rows):
    for block in rows:
        return block


@pytest.mark.parametrize("consume", [list, _one_block], ids=["full", "break"])
def test_a_wigner_pass_leaves_no_thread(consume):
    # the worker of a pass is joined when the pass ends, however it ends;
    # only a pass that ran to its end leaves a summary
    psi, x_axis, y_axis = _stream_case("fock5_ym1")
    rows = WignerRows(psi, x_axis, y_axis)
    threads = threading.active_count()
    consume(rows)
    assert threading.active_count() == threads
    assert (rows.summary is not None) == (consume is list)


def _overflow(*args):
    return np.float64(1e308) * 10.0


@pytest.mark.parametrize("fault, error, message", [
    (MemoryError("Unable to allocate 2.00 MiB for an array"), MemoryError, "Unable to allocate"),
    (_overflow, RuntimeWarning, "overflow"),
], ids=["MemoryError", "RuntimeWarning"])
def test_a_worker_error_reaches_the_caller_after_its_join(monkeypatch, fault, error, message):
    # the error of a batch's transform, with its own type and message; a
    # RuntimeWarning is one under the suite's filter, in the worker too
    def transform(*args):
        if isinstance(fault, Exception):
            raise fault
        return fault(*args)

    monkeypatch.setattr(analysis, "_offset_dft", transform)
    rows = WignerRows(*_stream_case("fock5_ym1"))
    threads = threading.active_count()
    with pytest.raises(error, match=message):
        for _ in rows:
            pass
    assert threading.active_count() == threads
    assert rows.summary is None


def test_the_worker_keeps_the_callers_floating_point_errors(monkeypatch):
    # the worker runs in a copy of the caller's context, np.errstate included
    monkeypatch.setattr(analysis, "_offset_dft", _overflow)
    rows = WignerRows(*_stream_case("fock5_ym1"))
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        list(rows)


def test_held_blocks_keep_their_values_while_passes_interleave():
    # block k stays intact after block k+1 is asked for: three passes, each
    # with its worker, advanced in turn with thread switches forced often,
    # and every block held to the end
    cases = ["fock5_ym1", "cubic_06a", "paxis"]
    expected = [wigner(*_stream_case(case)).values for case in cases]
    passes = {case: iter(WignerRows(*_stream_case(case))) for case in cases}
    held = {case: [] for case in cases}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        while passes:
            for case, blocks in list(passes.items()):
                block = next(blocks, None)
                if block is None:
                    del passes[case]
                else:
                    held[case].append(block[0])
    finally:
        sys.setswitchinterval(interval)
    for case, values in zip(cases, expected):
        assert np.concatenate(held[case]).tobytes() == values.tobytes()


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
    _, batched = Grader(VACUUM, BestPhaseCat(n)).grade([(FockResource(n), ys)])
    for y_m, f in zip(ys.tolist(), batched):
        result = collapse(VACUUM, FockResource(n), y_m)
        assert abs(f - fidelity_coh(result.psi_out, n, y_m)) <= 1e-12


def test_best_phase_grader_takes_any_input():
    # a kicked input is complex and narrower than the cat: the cat's norm
    # must not be cut to the input's support
    ys = np.array([-1.7, -0.3, 0.0, 0.9, 2.2])
    _, batched = Grader(KICKED, BestPhaseCat(4)).grade([(FockResource(4), ys)])
    for y_m, f in zip(ys.tolist(), batched):
        result = collapse(KICKED, FockResource(4), y_m)
        assert abs(f - fidelity_coh(result.psi_out, 4, y_m)) <= 1e-12


def test_best_phase_grader_at_zero_outcome_is_the_cat_fidelity():
    _, [f] = Grader(VACUUM, BestPhaseCat(5)).grade([(FockResource(5), [0.0])])
    result = collapse(VACUUM, FockResource(5), 0.0)
    assert f == pytest.approx(fidelity_cat(result.psi_out, 5), abs=1e-14)


@pytest.mark.parametrize("n, ys, bad", [(5, [0.0, 1.0, -4.0], "-4.0"), (0, [0.5, 1.0], "1.0")])
def test_best_phase_domain_error_comes_before_any_grading(monkeypatch, n, ys, bad):
    calls = []
    monkeypatch.setattr(states, "hermite_values", lambda *a: calls.append(a))
    with pytest.raises(LinearizationDomainError, match=f"y_m={bad} "):
        Grader(VACUUM, BestPhaseCat(n)).grade([(FockResource(n), ys)])
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
    x_axis = strided_axis(ODD_GRID)
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

@pytest.mark.parametrize("d", [-1e-9, math.nan, 2.1 * math.sqrt(11.0)],
                         ids=["negative", "nan", "beyond-cat-regime"])
def test_window_validation(d):
    with pytest.raises(ValueError, match="window width d must be in"):
        fidelity_mix(5, d, VACUUM)


def test_window_domain_is_closed():
    # d = 0 is the d -> 0 limit: no probability, and the cat fidelity at y = 0
    f_mix, p_mix = fidelity_mix(5, 0.0, VACUUM)
    reference = reference_cat(5, 0.0, GRID)
    _, fidelities = Grader(VACUUM, reference).grade([(FockResource(5), np.zeros(1))])
    assert p_mix == 0.0
    assert f_mix == float(fidelities[0])
    # the widest window, 2 sqrt(2n+1), is accepted as it stands
    f_mix, p_mix = fidelity_mix(5, 2.0 * FockResource(5).copy_shift(0.0), VACUUM)
    assert 0.0 < f_mix < 1.0 and 0.0 < p_mix < 1.0


def test_mix_widths_are_graded_independently():
    # one grader call for every width, each summed over its own nodes: a
    # width's result is bit-equal to its one-width call, wherever it sits
    widths = np.array([1.3, 0.0, 2.0 * math.sqrt(11.0), 1e-320])
    f_mix, p_mix = fidelity_mix(5, widths, VACUUM)
    for width, f, p in zip(widths.tolist(), f_mix.tolist(), p_mix.tolist()):
        assert (f, p) == fidelity_mix(5, width, VACUUM)


def test_mix_of_no_widths_is_empty():
    # like an empty squeezing_scan or Grader.grade: nothing to grade, after
    # the Fock order is checked
    f_mix, p_mix = fidelity_mix(5, np.array([]), VACUUM)
    assert f_mix.shape == p_mix.shape == (0,)
    with pytest.raises(ValueError):
        fidelity_mix(-1, np.array([]), VACUUM)


def test_mix_fidelity_survives_subnormal_widths():
    # the half-width cancels in F_mix, so a width whose (d/2) w P underflows
    # still gives the cat fidelity at y = 0, and P_mix stays about P(0) d
    f_zero, _ = fidelity_mix(5, 0.0, VACUUM)
    p0 = probability_density(VACUUM, FockResource(5), 0.0)
    for d in (1e-320, 1e-310, 1e-300):
        f_mix, p_mix = fidelity_mix(5, d, VACUUM)
        assert abs(f_mix - f_zero) <= 1e-14
        assert abs(p_mix - p0 * d) <= 0.02 * p0 * d


def test_mix_fidelity_degenerate_window():
    f_mix, p_mix = fidelity_mix(5, 1e-6, VACUUM)
    f_cat0 = fidelity_cat(collapse(VACUUM, FockResource(5), 0.0).psi_out, 5)
    assert abs(f_mix - f_cat0) < 1e-8
    assert p_mix == pytest.approx(probability_density(VACUUM, FockResource(5), 0.0) * 1e-6, rel=1e-4)


def test_mix_probability_linear_for_small_windows():
    p0 = probability_density(VACUUM, FockResource(5), 0.0)
    for d in (0.1, 0.2):
        _, p_mix = fidelity_mix(5, d, VACUUM)
        assert p_mix == pytest.approx(p0 * d, rel=0.02)


def test_mix_infidelity_grows_with_window():
    values = []
    for d in np.linspace(0.2, 1.4, 7):
        f_mix, _ = fidelity_mix(5, float(d), VACUUM)
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
    grader = Grader(psi_in, reference_cat(n, 0.0, GRID))
    densities, fidelities = grader.grade([(FockResource(n), 0.5 * d * nodes)])
    p_rule = 0.5 * d * float(np.sum(weights * densities))
    f_rule = 0.5 * d * float(np.sum(weights * densities * fidelities)) / p_rule
    f_mix, p_mix = fidelity_mix(n, d, psi_in)
    assert abs(f_mix - f_rule) <= 1e-12
    assert abs(p_mix - p_rule) <= 1e-12
