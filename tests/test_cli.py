import hashlib
import json
import math
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgate import FockResource, analysis, cli, cubic, gate, make_vacuum, matching
from catgate.cli import _write_csv, main
from catgate.numerics import MIN_SQUEEZING, default_grid
from catgate.semiclassical import REFERENCE_N


def read_csv(path):
    names = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if names is None:
                names = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows)
    return {name: data[:, i] for i, name in enumerate(names)}


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CATGATE_GRID", raising=False)
    return tmp_path


def test_collapse_vacuum_resource():
    assert main(["collapse", "--fock", "0", "--ym", "0"]) == 0
    summary = json.loads(open("collapse.json").read())
    assert summary["P"] == pytest.approx(0.3989, abs=1e-4)
    table = read_csv("collapse.csv")
    assert set(table) == {"x", "re", "im", "abs2"}
    meta = json.loads(open("collapse.csv.meta.json").read())
    assert meta["command"] == "collapse"
    assert "version" in meta


def test_collapse_fock5_headline():
    assert main(["collapse", "--fock", "5", "--ym", "0", "--out", "f5"]) == 0
    summary = json.loads(open("f5.json").read())
    assert summary["P"] == pytest.approx(0.098, abs=3e-3)
    assert 1.0 - summary["fidelities"]["cat"] == pytest.approx(0.005, abs=2e-3)


def test_collapse_requires_one_resource():
    assert main(["collapse"]) == 2
    assert main(["collapse", "--fock", "1", "--cubic", "0.1,1,0.5"]) == 2


def test_impossible_cubic_outcome_reports_zero_probability(capsys):
    assert main(["collapse", "--cubic", "0.075,1e6,0.171"]) == 2
    message = capsys.readouterr().err
    assert "vanishing probability" in message
    assert "finite" not in message


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["scan", "probability", "--fock", "1", "--step", "0"], "--step"),
        (["scan", "cohfid", "--fock", "1", "--step", "0"], "--step"),
        (["scan", "catfid", "--step", "0"], "--step"),
        (["scan", "probability", "--fock", "1", "--step", "-0.1"], "--step"),
        (["scan", "catfid", "--window", "3,0"], "--window"),
        (["scan", "mixfid", "--points", "0"], "--points"),
        (["scan", "squeeze", "--gamma", "0.075", "--ym", "2.486", "--srange", "0.1,0.2,0"],
         "--srange"),
        (["wigner", "--vacuum", "--stride", "-8"], "--stride"),
        (["collapse", "--fock", "1", "--ym", "nan"], "--ym"),
        (["match", "ladder", "--kmax", "1", "--scan", "0.9,1.3,-0.05"], "--scan"),
    ],
)
def test_bad_step_count_and_number_values_are_usage_errors(argv, flag, capsys, in_tmp):
    # steps and counts must be positive and every number finite; each is
    # rejected, naming its flag, before anything is computed or written
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert list(in_tmp.iterdir()) == []


def test_malformed_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["collapse", "--bogus"])
    assert exc.value.code == 2


def test_byte_identical_rerun():
    main(["collapse", "--fock", "3", "--ym", "0.5", "--out", "a"])
    main(["collapse", "--fock", "3", "--ym", "0.5", "--out", "b"])
    assert open("a.csv", "rb").read() == open("b.csv", "rb").read()
    assert open("a.json", "rb").read() == open("b.json", "rb").read()


def test_wigner_vacuum():
    assert main(["wigner", "--vacuum", "--out", "wv"]) == 0
    meta = json.loads(open("wv.csv.meta.json").read())
    assert meta["normalization"] == pytest.approx(1.0, abs=1e-4)
    assert meta["max_value"] == pytest.approx(1.0 / math.pi, abs=1e-4)


def test_wigner_cubic_negativity():
    args = ["wigner", "--cubic", "0.334,11.012,0.241", "--out", "wc"]
    assert main(args) == 0
    meta = json.loads(open("wc.csv.meta.json").read())
    assert meta["min_value"] < -0.25
    assert meta["normalization"] == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("args, message", [
    (["--paxis", "3,1,20"], "--paxis: grid requires x_max > x_min"),
    (["--paxis", "0,1,5"], "--paxis: grid needs at least 16 points, got 5"),
    (["--stride", "5000"], "--stride: grid needs at least 16 points, got 1"),
])
def test_wigner_checks_its_axes_before_the_collapse(monkeypatch, capsys, in_tmp, args, message):
    calls = []
    original = cli.collapse
    monkeypatch.setattr(cli, "collapse", lambda *a: calls.append(a) or original(*a))
    assert main(["wigner", "--fock", "5"] + args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []
    assert list(in_tmp.iterdir()) == []


def test_wigner_vacuum_excludes_resources():
    assert main(["wigner", "--vacuum", "--fock", "5"]) == 2
    assert main(["wigner", "--vacuum", "--ym", "3"]) == 2


def test_wigner_ym_override_for_cubic():
    args = ["wigner", "--cubic", "0.075,2.486,0.3", "--ym", "0.5",
            "--stride", "16", "--out", "wo"]
    assert main(args) == 0
    meta = json.loads(open("wo.csv.meta.json").read())
    assert meta["parameters"]["ym"] == "0.5"


@pytest.mark.parametrize("command", ["collapse", "wigner"])
@pytest.mark.parametrize("point", [["--cubic", "0.3,-1,0.5"], ["--cubic", "0.3,1,0.5", "--ym", "-1"]],
                         ids=["cubic", "ym_override"])
def test_negative_cubic_outcome_is_refused_however_it_is_given(command, point, capsys, in_tmp):
    # --ym replaces the cubic point's outcome, so it meets the same y_m >= 0 check
    assert main([command, *point]) == 2
    assert "y_m >= 0 convention" in capsys.readouterr().err
    assert list(in_tmp.iterdir()) == []


def test_scan_probability_completeness():
    assert main(["scan", "probability", "--fock", "1..2", "--out", "sp"]) == 0
    meta = json.loads(open("sp.csv.meta.json").read())
    for n in ("1", "2"):
        assert meta["integrals"][n] == pytest.approx(1.0, abs=1e-3)
    table = read_csv("sp.csv")
    assert set(table) == {"n", "ym", "P"}


@pytest.mark.parametrize("n", [1, 5, 10])
def test_scan_probability_tails_match_the_direct_density(n):
    # every printed P, down to 1e-20, is the density to its printed digits
    assert main(["scan", "probability", "--fock", str(n), "--out", "tails"]) == 0
    table = read_csv("tails.csv")
    half = 12.0 + math.sqrt(2 * n + 1)  # the default window, at the default step
    ys = np.arange(-half, half + 0.025, 0.05)
    assert np.max(np.abs(table["ym"] - ys)) < 1e-9
    vacuum = make_vacuum(default_grid())
    direct = np.array([gate.probability_density(vacuum, FockResource(n), y) for y in ys])
    tail = direct > 1e-20
    assert np.max(np.abs(table["P"][tail] - direct[tail]) / direct[tail]) <= 1e-11


def test_scan_probability_echoes_window():
    echoed = []
    for out, window in (("narrow", "-1,1"), ("wide", "-2,2")):
        args = ["scan", "probability", "--fock", "1", "--step", "0.5", f"--window={window}",
                "--out", out]
        assert main(args) == 0
        params = json.loads(open(f"{out}.csv.meta.json").read())["parameters"]
        assert params["window"] == window
        echoed.append(params)
    assert echoed[0] != echoed[1]


def test_grid_table_is_the_long_format():
    # a grid table (two axes and blocks of W rows over them) writes the bytes
    # of the (x, y, W) columns it stands for, also in rows of +0.0 only, of
    # -0.0 only ("-0"), of some zeros, and with a NaN
    x = np.array([-1.5, -0.0, 1.0 / 3.0, 1e22, 0.0, 2.0, 2.5, 3.0])
    y = np.array([-2.0, 0.25, 1e-300, 123456789012345.0, 3.0])
    w = np.random.default_rng(0).normal(size=(8, 5)) * 10.0 ** np.arange(-6, 4, 2)
    w[4], w[5], w[6, [0, 2, 3]], w[7, 1] = 0.0, -0.0, [0.0, -0.0, 0.0], np.nan
    _write_csv("grid.csv", "title", {"x": x, "y": y, "W": iter([w[:3], w[3:]])})
    xs, ys = np.meshgrid(x, y, indexing="ij")
    _write_csv("long.csv", "title", {"x": xs.ravel(), "y": ys.ravel(), "W": w.ravel()})
    text = open("grid.csv").read()
    assert text == open("long.csv").read()
    assert text.count(",-0\n") == 6 and text.count(",nan\n") == 1


def test_write_csv_golden_bytes():
    # the output contract as a literal: 12 significant digits, "-0", "nan",
    # "inf", exponents as %g writes them, LF line endings; the second grid
    # row is +0.0 only
    nan, inf = math.nan, math.inf
    _write_csv("flat.csv", "flat table", {"a": [0.0, -0.0, nan, inf, -inf],
                                          "b": [1e22, 1e-300, 1.0 / 3.0, -2.5, 123456789012345.0]})
    _write_csv("grid.csv", "grid table", {"x": [-0.0, 1.5, 1e22], "y": [0.25, -1e-300],
                                          "W": iter([np.array([[-0.0, nan], [0.0, 0.0]]),
                                                     np.array([[inf, 1e22]])])})
    assert open("flat.csv", "rb").read() == (
        b"# flat table\n# columns: a, b\na,b\n"
        b"0,1e+22\n-0,1e-300\nnan,0.333333333333\ninf,-2.5\n-inf,1.23456789012e+14\n")
    assert open("grid.csv", "rb").read() == (
        b"# grid table\n# columns: x, y, W\nx,y,W\n"
        b"-0,0.25,-0\n-0,-1e-300,nan\n"
        b"1.5,0.25,0\n1.5,-1e-300,0\n"
        b"1e+22,0.25,inf\n1e+22,-1e-300,1e+22\n")


def g12(values):
    """``cli._format_g12``'s text of each value, and how many cells it sent
    to "%"."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((values.size, 4), np.uint64)
    slow = cli._format_g12(values, out)
    return out.tobytes().translate(None, b"\0").split(b"\n")[:-1], slow


def percent_g12(values):
    return [b"%.12g" % value for value in np.asarray(values, dtype=np.float64).tolist()]


G12_EDGES = [
    0.0, -0.0, 1e-5, 9.99999999999949e-05, 1e11, 999999999999.5, 9.9999999999995e-07,
    2.5, 0.125, -0.375, 1e-300, 5e-324, sys.float_info.max, -sys.float_info.max,
    sys.float_info.min, math.nan, math.inf, -math.inf,
    # decade carries that log10 does not see
    9.9999999999993e-05, -9.9999999999996e-07, 9.99999999999951e+20,
    # ties at the 12th digit: 1001/8192 is 0.1221923828125
    1001 / 8192, -1003 / 8192, 1234567890125000.0, 1234567890135000.0,
    # the lead "0." to "0.000", and the decades on either side of it
    0.1, 1e-4, -1.05e-4, 0.000123456789012345, 9.99999999999e-5, 1.5e-5, 1.0 / 3.0,
    # the decades "%" takes, and the kernel's last ones
    1.0, 123.456, 999999999999.4, 1e12, 1.5e15, 123456789012345.0, 1e16,
    1e-290, 1e290, 1e-291, 1e291, 9.99999999999e290, 1e300,
]


def test_format_g12_is_percent_on_the_edges():
    texts, _ = g12(G12_EDGES)
    assert texts == percent_g12(G12_EDGES)


def test_format_g12_powers_are_the_decimal_literals():
    # r = |v| 10^(11-e) is within 2.3e-4 of exact only with correctly rounded powers
    scale = cli._g12_tables()[0]
    e = np.arange(scale.size) - cli._G12_BIAS
    kernel = scale != 0
    assert kernel.sum() == 2 * 290 + 1 - 12
    assert all(scale[i] == float(f"1e{11 - e[i]}") for i in np.flatnonzero(kernel))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_format_g12_is_percent_on_any_float(values):
    assert g12(values)[0] == percent_g12(values)


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=8, max_size=512).map(lambda b: b[:len(b) // 8 * 8]))
def test_format_g12_is_percent_on_any_bit_pattern(bits):
    values = np.frombuffer(bits, dtype=np.float64)
    assert g12(values)[0] == percent_g12(values)


def test_format_g12_is_percent_on_random_bit_patterns():
    # about a tenth of random patterns are NaN, inf, subnormal or past 1e290
    values = np.random.default_rng(3).integers(0, 256, size=8 * 2 ** 16, dtype=np.uint8).view(np.float64)
    texts, slow = g12(values)
    assert texts == percent_g12(values)
    assert slow < values.size // 5


def test_grid_table_is_the_long_format_in_every_decade():
    # 32 values in each decade from 1e-320 to 1e308, both signs, through the
    # kernel on the grid path and "%" on the flat path
    rng = np.random.default_rng(4)
    decades = np.arange(-320, 309)
    mantissas = rng.uniform(1.0, 10.0, size=(decades.size, 32))
    mantissas[-1] = rng.uniform(1.0, 1.75, size=32)
    w = mantissas * 10.0 ** decades[:, None].astype(float)
    w[:, 16:] *= -1.0
    w[:, 1] = 10.0 ** decades.astype(float)
    x, y = np.arange(decades.size) * 0.1, np.linspace(-1.0, 1.0, 32)
    _write_csv("grid.csv", "title", {"x": x, "y": y, "W": iter([w[:300], w[300:]])})
    xs, ys = np.meshgrid(x, y, indexing="ij")
    _write_csv("long.csv", "title", {"x": xs.ravel(), "y": ys.ravel(), "W": w.ravel()})
    assert open("grid.csv", "rb").read() == open("long.csv", "rb").read()


def test_format_g12_formats_a_script_grid_itself():
    # the Fock-5, y_m = 0 grid of the Fock report: 108032 live cells, of
    # which 215 (0.2%) are ties or decade carries that go to "%"
    rows = analysis.WignerRows(gate.collapse(make_vacuum(default_grid()), FockResource(5), 0.0).psi_out)
    live = np.concatenate([block[block.any(axis=1)] for block in rows]).ravel()
    texts, slow = g12(live)
    assert texts == percent_g12(live)
    assert slow < 0.01 * live.size


def test_zero_batches_are_written_without_the_kernel(monkeypatch):
    # the rows outside the state's support come as zero batches, which the
    # writer takes from its pre-formatted zero lines: the kernel formats the
    # rows of the live batches only, each whole
    cells = []

    def format_g12(values, out):
        cells.append(values.size)
        return original(values, out)

    original = cli._format_g12
    monkeypatch.setattr(cli, "_format_g12", format_g12)
    assert main(["wigner", "--fock", "5", "--ym", "1", "--out", "w"]) == 0
    grid = default_grid()
    live = gate.collapse(make_vacuum(grid), FockResource(5), 1.0).psi_out.support()
    x = analysis.strided_axis(grid).points
    live_rows = np.count_nonzero((x >= grid.points[live.start]) & (x <= grid.points[live.stop - 1]))
    assert 0 < live_rows < x.size
    assert sum(cells) == live_rows * x.size


@pytest.mark.parametrize("columns", [
    {"x": np.arange(6.0), "y": np.arange(2.0), "W": iter([np.ones((3, 2))])},
    {"x": np.arange(6.0), "y": np.arange(2.0), "W": iter([np.ones((4, 2)), np.ones((4, 2))])},
    {"x": np.arange(6.0), "y": np.arange(2.0), "W": iter([np.ones((6, 3))])},
    {"a": np.arange(5.0), "b": np.arange(2.0)},
], ids=["short_stream", "long_stream", "wide_block", "unequal_columns"])
def test_write_csv_refuses_a_table_that_does_not_fit(columns):
    with pytest.raises(ValueError):
        _write_csv("t.csv", "title", columns)


def test_a_short_grid_stream_is_a_usage_error_and_leaves_no_file(monkeypatch, capsys, in_tmp):
    class ShortRows(analysis.WignerRows):
        def __iter__(self):
            blocks = super().__iter__()
            yield next(blocks)

    monkeypatch.setattr(cli, "WignerRows", ShortRows)
    assert main(["wigner", "--fock", "5", "--out", "w"]) == 2
    assert capsys.readouterr().err.startswith("error: grid of ")
    assert list(in_tmp.iterdir()) == []


def test_write_csv_holds_one_row_at_a_time():
    # every row live: the writer converts one row to Python floats at a time,
    # where the whole table as floats is about 32 MiB
    w = np.random.default_rng(1).uniform(0.5, 1.5, size=(2048, 512))
    x, y = np.arange(2048.0), np.arange(512.0)
    tracemalloc.start()
    try:
        _write_csv("live.csv", "title", {"x": x, "y": y, "W": iter([w])})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_write_csv_holds_one_block_of_rows_at_a_time():
    # the 1-D twin: 2^16 rows of 3 columns as Python floats are about 6 MiB;
    # the writer converts about _CSV_BLOCK_CELLS cells, 682 rows, at a time
    rng = np.random.default_rng(1)
    x, p, f = (rng.uniform(0.5, 1.5, size=2 ** 16) for _ in range(3))
    tracemalloc.start()
    try:
        _write_csv("rows.csv", "title", {"x": x, "P": p, "F": f})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    with open("rows.csv", "rb") as fh:
        body = fh.read().split(b"\n")[3:-1]
    assert len(body) == 2 ** 16
    assert body[2 ** 15] == b"%.12g,%.12g,%.12g" % (x[2 ** 15], p[2 ** 15], f[2 ** 15])


def _traced_peak(argv):
    """main(argv)'s exit code and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def test_wigner_command_holds_no_grid():
    # 2048 x 2048 cells, a 32 MiB grid, streamed into the table: the
    # writer's block and the batch being transformed (about 3.3 MiB
    # traced), no grid anywhere
    code, peak = _traced_peak(["wigner", "--fock", "5", "--stride", "2", "--out", "w2"])
    assert code == 0
    os.remove("w2.csv")  # 157 MB
    assert peak < 6 * 2 ** 20


def test_match_compare_wigner_holds_no_grid():
    # both sides' 512 x 512 grids (2 MiB each) are streamed one after the other
    argv = ["match", "compare", "--fock", "5", "--cubic", "0.075,2.486,0.171", "--wigner"]
    code, peak = _traced_peak(argv + ["--out", "mc"])
    assert code == 0
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["wigner", "--fock", "5", "--ym", "1"],
    ["wigner", "--cubic", "0.334,11.012,0.241", "--paxis", "2.5,4,601"],
    ["wigner", "--vacuum", "--stride", "4"],
], ids=["fock5", "cubic_02b", "vacuum"])
def test_streamed_sidecar_is_the_wigner_grids(argv):
    assert main(argv + ["--out", "w"]) == 0
    meta = json.loads(open("w.csv.meta.json").read())
    grid = default_grid()
    if "--vacuum" in argv:
        state, x_axis, y_axis = make_vacuum(grid), analysis.strided_axis(grid, 4), None
    elif "--cubic" in argv:
        cfg = cubic.CubicGateConfig(0.334, 11.012, 0.241)
        state = gate.collapse(make_vacuum(grid), cfg.resource, cfg.y_m).psi_out
        x_axis, y_axis = None, analysis.Grid(2.5, 4.0, 601)
    else:
        state = gate.collapse(make_vacuum(grid), FockResource(5), 1.0).psi_out
        x_axis, y_axis = None, None
    w = analysis.wigner(state, x_axis, y_axis)
    norm = w.normalization()
    assert meta["normalization"] == norm and meta["normalization_residual"] == norm - 1.0
    assert meta["imag_residue"] == w.imag_residue
    assert meta["min_value"] == w.values.min() and meta["max_value"] == w.values.max()


# sha256 of Wigner tables that the golden manifest does not cover: a
# --paxis table at stride 3 with its sidecar, and a table whose x axis
# starts on the grid's fourth node and ends on the support's middle row,
# which is a live batch of one row
TABLE_PINS = {
    "w.csv": "a94c5e8d5a644f4fe54096d6db7e0b387cd6372f1b2a875394ba60c1b779ee06",
    "w.csv.meta.json": "229f494fe4c0d02fb106f303ebd2db26947379423f44a42c56aab40cff325f58",
    "one_row.csv": "bfc606f859c5385bf47bd2db21a9661f06131a6de32ab65428618472955a312c",
}


def test_wigner_tables_keep_their_bytes(in_tmp):
    assert main(["wigner", "--fock", "5", "--stride", "3", "--paxis=-6,6,301", "--out", "w"]) == 0
    grid = default_grid()
    psi = gate.collapse(make_vacuum(grid), FockResource(5), 1.0).psi_out
    x_axis = analysis.Grid(float(grid.points[3]), float(grid.points[2047]), 293)
    rows = analysis.WignerRows(psi, x_axis, analysis.Grid(-6.0, 6.0, 121))
    assert [len(values) for values in rows][-3:] == [37, 37, 1]
    _write_csv("one_row.csv", "title",
               {"x": x_axis.points, "y": rows.y_axis.points, "W": iter(rows)})
    digests = {name: hashlib.sha256((in_tmp / name).read_bytes()).hexdigest() for name in TABLE_PINS}
    assert digests == TABLE_PINS


def test_match_compare_sidecars_are_the_wigner_grids():
    # each side's normalization is its WignerGrid's, and close to 1
    argv = ["match", "compare", "--fock", "1", "--cubic", "0.05,0.45,0.5", "--wigner"]
    assert main(argv + ["--out", "mc"]) == 0
    vacuum = make_vacuum(default_grid())
    cfg = cubic.CubicGateConfig(0.05, 0.45, 0.5)
    for tag, resource, y_m in (("fock", FockResource(1), 0.0), ("cubic", cfg.resource, cfg.y_m)):
        meta = json.loads(open(f"mc_{tag}_wigner.csv.meta.json").read())
        norm = analysis.wigner(gate.collapse(vacuum, resource, y_m).psi_out).normalization()
        assert meta["normalization"] == norm == pytest.approx(1.0, abs=1e-4)


def test_scan_mixfid_monotone():
    args = ["scan", "mixfid", "--fock", "5", "--d", "0..1.4", "--points", "8", "--out", "sm"]
    assert main(args) == 0
    table = read_csv("sm.csv")
    inf = table["infidelity_mix"]
    assert np.all(np.diff(inf) >= -1e-12)


def test_scan_mixfid_zero_width_is_the_limit():
    # d -> 0: no accepted probability, and the cat fidelity at y = 0
    assert main(["scan", "mixfid", "--fock", "5", "--d", "0..1", "--points", "3",
                 "--out", "sm"]) == 0
    assert main(["scan", "catfid", "--fock", "5", "--window", "0,0", "--out", "sf"]) == 0
    d0, p_mix, infidelity_mix = open("sm.csv").read().splitlines()[3].split(",")
    y0, infidelity_cat = open("sf.csv").read().splitlines()[3].split(",")
    assert (d0, p_mix, y0) == ("0", "0", "0")
    assert infidelity_mix == infidelity_cat
    # only 0 is a limit: a negative width is refused
    assert main(["scan", "mixfid", "--fock", "5", "--d=-1..1", "--out", "neg"]) == 2


def test_scan_mixfid_checks_every_width_before_grading(monkeypatch, capsys, in_tmp):
    # 7.0, the last of the 11 widths of 0..7, is beyond 2 sqrt(11) = 6.63325,
    # and none of the ten widths below it is graded
    calls = []
    original = gate.Grader.grade
    monkeypatch.setattr(gate.Grader, "grade", lambda *a: calls.append(a) or original(*a))
    assert main(["scan", "mixfid", "--fock", "5", "--d", "0..7", "--out", "sm"]) == 2
    assert capsys.readouterr().err == ("error: window width d must be in "
                                       "[0, 2*sqrt(2n+1)] = [0, 6.63325], got 7.0\n")
    assert calls == []
    assert list(in_tmp.iterdir()) == []


def test_scan_mixfid_grades_every_width_in_one_call(monkeypatch, in_tmp):
    calls = []
    original = gate.Grader.grade
    monkeypatch.setattr(gate.Grader, "grade", lambda *a: calls.append(a) or original(*a))
    assert main(["scan", "mixfid", "--fock", "5", "--d", "0..2", "--points", "21",
                 "--out", "sm"]) == 0
    assert len(calls) == 1
    assert len(read_csv("sm.csv")["d"]) == 21


def test_scan_squeeze_matched_row():
    args = ["scan", "squeeze", "--gamma", "0.075", "--ym", "2.486",
            "--srange", "0.111,0.231,5", "--out", "sq"]
    assert main(args) == 0
    table = read_csv("sq.csv")
    row = int(np.flatnonzero(np.isclose(table["s"], 0.171))[0])
    assert table["P"][row] == pytest.approx(0.098, abs=3e-3)
    assert table["inverse_s"][row] == pytest.approx(1.0 / 0.171)


def test_scan_squeeze_checks_every_s_before_grading(monkeypatch, capsys, in_tmp):
    # 1.5 is the last of the three squeezing factors, and none of them is graded
    calls = []
    original = gate.Grader.grade
    monkeypatch.setattr(gate.Grader, "grade", lambda *a: calls.append(a) or original(*a))
    args = ["scan", "squeeze", "--gamma", "0.075", "--ym", "2.486", "--srange", "0.05,1.5,3"]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: squeezing factor s must be in [0.05, 1], got 1.5\n"
    assert calls == []
    assert list(in_tmp.iterdir()) == []
    # the spy sees the grading of a valid range
    args[-1] = "0.05,1,3"
    assert main(args + ["--out", "sq"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, name", [
    (["scan", "catfid", "--fock", "5"], "Grader"),
    (["scan", "probability", "--fock", "1"], "probability_scan"),
    (["wigner", "--fock", "5"], "WignerRows"),
])
def test_out_of_memory_is_a_usage_error(monkeypatch, capsys, argv, name):
    # an axis too large for memory, e.g. --step 1e-10 (224 GiB), without
    # allocating it: the compute function raises as numpy would
    def refuse(*args):
        raise MemoryError("Unable to allocate 224. GiB for an array")
    monkeypatch.setattr(cli, name, refuse)
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: out of memory, choose smaller axes: Unable to allocate 224. GiB for an array"]


@pytest.mark.parametrize("argv", [
    ["wigner", "--fock", "5"],
    ["match", "compare", "--fock", "1", "--cubic", "0.05,0.45,0.5", "--wigner"],
], ids=["wigner", "match_compare"])
def test_a_failed_stream_leaves_no_file(monkeypatch, capsys, in_tmp, argv):
    # the stream fails after its first block, which the writer has written:
    # the partial table, and every file the command wrote before it, go
    class FailingRows(analysis.WignerRows):
        def __iter__(self):
            blocks = super().__iter__()
            yield next(blocks)
            assert os.path.getsize(written[-1]) > 0
            raise MemoryError("Unable to allocate 2.00 MiB for an array")

    written = []
    original = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv",
                        lambda path, *a: written.append(path) or original(path, *a))
    monkeypatch.setattr(cli, "WignerRows", FailingRows)
    assert main(argv + ["--out", "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: out of memory, choose smaller axes: Unable to allocate 2.00 MiB for an array"]
    assert len(written) == 1
    assert list(in_tmp.iterdir()) == []


def _format_once(monkeypatch):
    """Let the writer format one pass of rows, then fail as a full disk does."""
    calls = []

    def format_g12(values, out):
        if calls:
            raise OSError(28, "No space left on device")
        calls.append(len(values))
        return original(values, out)

    original = cli._format_g12
    monkeypatch.setattr(cli, "_format_g12", format_g12)


def _refuse_transforms(monkeypatch):
    def refuse(*args):
        raise MemoryError("Unable to allocate 2.00 MiB for an array")
    monkeypatch.setattr(analysis, "_offset_dft", refuse)


@pytest.mark.parametrize("fault, code, message", [
    (_refuse_transforms, 2,
     "error: out of memory, choose smaller axes: Unable to allocate 2.00 MiB for an array"),
    (_format_once, 4, "error: I/O failure: [Errno 28] No space left on device"),
], ids=["worker", "writer"])
def test_a_failed_stream_is_joined_before_its_files_go(monkeypatch, capsys, in_tmp, fault, code,
                                                        message):
    # the stream is stopped, with no thread left, before the command's
    # files are removed, whether the transform or the write failed; the
    # pass leaves no summary
    passes, threads_at_remove = [], []

    class Rows(analysis.WignerRows):
        def __init__(self, *args):
            super().__init__(*args)
            passes.append(self)

    def remove(path):
        threads_at_remove.append(threading.active_count())
        original_remove(path)

    original_remove = os.remove
    fault(monkeypatch)
    monkeypatch.setattr(cli, "WignerRows", Rows)
    monkeypatch.setattr(os, "remove", remove)
    threads = threading.active_count()
    assert main(["wigner", "--fock", "5", "--out", "w"]) == code
    assert capsys.readouterr().err.splitlines() == [message]
    assert list(in_tmp.iterdir()) == []
    assert threads_at_remove == [threads] and threading.active_count() == threads
    assert len(passes) == 1 and passes[0].summary is None


@pytest.mark.parametrize("command, name", [
    ("probability", "probability_scan"),
    ("cohfid", "Grader"),
])
def test_fock_range_is_checked_before_any_curve(monkeypatch, capsys, in_tmp, command, name):
    calls = []
    original = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: calls.append(a) or original(*a))
    assert main(["scan", command, "--fock", "62..65"]) == 2
    assert capsys.readouterr().err == "error: --fock: Fock resource supports n in [0, 64], got 65\n"
    assert calls == []
    assert list(in_tmp.iterdir()) == []


def test_scan_cohfid_small():
    assert main(["scan", "cohfid", "--fock", "1", "--step", "0.4", "--out", "sc"]) == 0
    table = read_csv("sc.csv")
    assert np.all((table["infidelity_coh"] >= 0) & (table["infidelity_coh"] <= 1))


def test_scan_catfid_small():
    args = ["scan", "catfid", "--fock", "5", "--window", "0,1", "--step", "0.25", "--out", "sf"]
    assert main(args) == 0
    table = read_csv("sf.csv")
    assert table["infidelity_cat"][0] == pytest.approx(0.005, abs=2e-3)


def test_match_squeeze_probability():
    args = ["match", "squeeze", "--gamma", "0.075", "--ym", "2.486",
            "--probability", "0.098", "--out", "ms"]
    assert main(args) == 0
    report = json.loads(open("ms.json").read())
    assert abs(report["fitted"]["s"] - 0.171) < 0.01
    assert report["converged"] is True


def test_match_squeeze_flag_validation():
    assert main(["match", "squeeze", "--gamma", "0.075", "--ym", "2.486"]) == 2
    args = ["match", "squeeze", "--gamma", "0.075", "--ym", "2.486",
            "--probability", "0.098", "--infidelity", "0.005"]
    assert main(args) == 2


def test_match_ladder_first_entry():
    args = ["match", "ladder", "--kmax", "1", "--scan", "0.9,1.3,0.05", "--out", "ml"]
    assert main(args) == 0
    table = read_csv("ml.csv")
    assert abs(table["ym"][0] - 1.066) < 0.02
    assert abs(table["gamma"][0] - 0.032) < 0.002
    report = json.loads(open("ml.json").read())
    assert report["entries"][0]["entry"] == 1


def test_match_ladder_nonconvergence_exit_code():
    args = ["match", "ladder", "--kmax", "2", "--scan", "0.9,1.3,0.05"]
    assert main(args) == 3


def test_match_ladder_checks_s_before_the_scan(capsys):
    # the scan 40..40 lies past gamma = 1 and has no node, but --s is still
    # a usage error
    assert main(["match", "ladder", "--kmax", "1", "--s", "0.01", "--scan", "40,40,0.05"]) == 2
    assert "squeezing factor s must be in [0.05, 1], got 0.01" in capsys.readouterr().err


@pytest.mark.parametrize("scan,message", [
    ("13,0.5,0.05", "--scan: empty range '13,0.5,0.05'"),
    ("0.5,13,1e-17", "the scan step 1e-17 does not move the scan at y_m = 13.0"),
    ("0.5,13,1e-16", "the scan step 1e-16 does not move the scan at y_m = 13.0"),
])
def test_match_ladder_refuses_a_scan_without_nodes_to_step(capsys, airy_call_sizes, scan, message):
    # a reversed range, or a step that cannot move the scan, is a usage error
    # before any kernel call, not non-convergence or a scan that never ends
    assert main(["match", "ladder", "--kmax", "1", "--scan", scan]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert airy_call_sizes == []


def test_match_ladder_takes_no_grid(monkeypatch, capsys):
    # the ladder search builds no state: no --grid flag, and CATGATE_GRID is not read
    with pytest.raises(SystemExit) as exc:
        main(["match", "ladder", "--kmax", "1", "--grid=-8,8,1024"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid=-8,8,1024" in capsys.readouterr().err
    monkeypatch.setenv("CATGATE_GRID", "not,a,grid")
    assert main(["match", "ladder", "--kmax", "1", "--scan", "0.9,1.3,0.05", "--out", "ml"]) == 0
    assert "grid" not in json.loads(open("ml.json").read())["parameters"]


def test_match_compare_entry_follows_fock():
    # the ladder entry is taken on the --fock line y_m = 3(2n+1) gamma, so both
    # gates have the copy spacing sqrt(2n+1)
    assert main(["match", "compare", "--fock", "3", "--entry", "1", "--out", "m3"]) == 0
    report = json.loads(open("m3.json").read())
    assert report["fock"]["copy_spacing"] == pytest.approx(math.sqrt(7.0), abs=1e-12)
    assert report["cubic"]["copy_spacing"] == pytest.approx(math.sqrt(7.0), abs=1e-9)


def test_match_compare_entry_rejects_even_fock(capsys, in_tmp):
    # the ladder holds odd cats; an even --fock would grade one against an even cat
    assert main(["match", "compare", "--fock", "4", "--entry", "1", "--out", "m4"]) == 2
    assert capsys.readouterr().err.startswith("error: --entry: ")
    assert list(in_tmp.iterdir()) == []


@pytest.mark.parametrize("args,flag", [
    (["match", "compare", "--entry", "10"], "--entry"),
    (["match", "ladder", "--kmax", "10"], "--kmax"),
])
def test_ladder_entry_range_names_its_flag(args, flag, capsys, in_tmp):
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {flag}: the ladder has entries 1 to 9, got 10\n"
    assert list(in_tmp.iterdir()) == []


def test_match_compare_entry_mode():
    # entry mode locates the odd-cat point, then fits s for equal success
    # probability with the Fock gate
    args = ["match", "compare", "--fock", "5", "--entry", "2", "--out", "me"]
    assert main(args) == 0
    report = json.loads(open("me.json").read())
    assert report["fock"]["P"] == pytest.approx(report["cubic"]["P"], abs=2e-3)
    assert 15.0 < report["infidelity_ratio"] < 25.0


@pytest.mark.parametrize("extra, states", [([], 0), (["--wigner"], 2)], ids=["graded", "wigner"])
def test_match_compare_entry_collapses_only_the_written_states(monkeypatch, extra, states):
    # the fit target, the fit and both sides are graded without a state; only
    # the Wigner grids need the collapsed states
    calls = []
    original = gate.collapse
    for module in (gate, analysis, cubic, matching, cli):
        if hasattr(module, "collapse"):
            monkeypatch.setattr(module, "collapse",
                                lambda *a: calls.append(a) or original(*a))
    assert main(["match", "compare", "--fock", "5", "--entry", "2", "--out", "mc"] + extra) == 0
    assert len(calls) == states


def test_match_compare_degenerate():
    args = ["match", "compare", "--fock", "0", "--cubic", "0,0,1", "--out", "mc"]
    assert main(args) == 0
    report = json.loads(open("mc.json").read())
    assert report["fock"]["P"] == pytest.approx(report["cubic"]["P"], abs=1e-9)
    assert report["cubic"]["copy_spacing"] is None


def test_match_compare_writes_strict_json():
    # at gamma = 1e-320, y_m / (3 gamma) overflows, but the spacing
    # sqrt(y_m) / sqrt(3 gamma) = 5.77e159 is finite
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    args = ["match", "compare", "--cubic", "1e-320,1,1", "--out", "mc"]
    assert main(args) == 0
    report = json.loads(open("mc.json").read(), parse_constant=refuse)
    assert report["cubic"]["copy_spacing"] == pytest.approx(1.0 / math.sqrt(3e-320), rel=1e-3)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[collapse]\nfock = 0\nym = 1.0\nout = fromfile\n")
    assert main(["collapse", "--config", str(cfg)]) == 0
    summary = json.loads(open("fromfile.json").read())
    assert summary["y_m"] == 1.0
    # flags win over the file
    assert main(["collapse", "--config", str(cfg), "--ym", "0", "--out", "flagged"]) == 0
    assert json.loads(open("flagged.json").read())["y_m"] == 0.0


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[collapse]\nfock = 0\nwidgets = 3\n")
    assert main(["collapse", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("text", ["fock = 0\n", "[collapse]\nfock = 0\nfock = 1\n"])
def test_malformed_config_file_is_a_usage_error(text, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert main(["collapse", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config file '{cfg}': ")


def test_grid_environment_override(monkeypatch):
    monkeypatch.setenv("CATGATE_GRID", "-8,8,1024")
    assert main(["collapse", "--fock", "0", "--out", "envgrid"]) == 0
    meta = json.loads(open("envgrid.csv.meta.json").read())
    assert meta["parameters"]["grid"] == "-8.0,8.0,1024"
    # explicit flag beats the environment (= form for the leading minus)
    assert main(["collapse", "--fock", "0", "--grid=-16,16,2048", "--out", "g2"]) == 0
    assert json.loads(open("g2.csv.meta.json").read())["parameters"]["grid"] == "-16.0,16.0,2048"


def test_io_error_exit_code():
    assert main(["collapse", "--fock", "0", "--out", "missing_dir/out"]) == 4


# Each subcommand's flags, in help order, and config keys that make a valid run.
SURFACE = {
    "collapse": (["--fock", "--cubic", "--ym", "--grid"], "fock = 0"),
    "wigner": (["--vacuum", "--fock", "--cubic", "--ym", "--stride", "--paxis", "--grid"],
               "vacuum = yes"),
    "scan probability": (["--fock", "--step", "--window", "--grid"], "fock = 1"),
    "scan cohfid": (["--fock", "--step", "--grid"], "fock = 1"),
    "scan catfid": (["--fock", "--window", "--step", "--grid"], ""),
    "scan mixfid": (["--fock", "--d", "--points", "--grid"], ""),
    "scan squeeze": (["--gamma", "--ym", "--srange", "--grid"], "gamma = 0.075\nym = 2.486"),
    "match ladder": (["--kmax", "--s", "--scan"], "kmax = 1"),
    "match squeeze": (["--gamma", "--ym", "--probability", "--infidelity", "--grid"],
                      "gamma = 0.075\nym = 2.486\nprobability = 0.098"),
    "match compare": (["--fock", "--entry", "--cubic", "--wigner", "--grid"],
                      "fock = 0\ncubic = 0,0,1"),
}


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_cli_surface_is_pinned(command, capsys, in_tmp):
    flags, keys = SURFACE[command]
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^  (?:-h, )?(--[a-z]+)", capsys.readouterr().out, re.M)
    assert listed == ["--help", *flags, "--out", "--config"]

    config = in_tmp / "run.ini"
    config.write_text(f"[{command}]\n{keys}\nwidgets = 3\n")
    assert main(command.split() + ["--config", str(config)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert list(in_tmp.iterdir()) == [config]


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_parameter_echo_reruns_the_command(command, in_tmp):
    # the first output's parameters, fed back as the command's config section,
    # rerun it to byte-identical files
    config = in_tmp / "run.ini"
    config.write_text(f"[{command}]\n{SURFACE[command][1]}\n")
    assert main(command.split() + ["--config", str(config), "--out", "first"]) == 0
    first = sorted(path.name for path in in_tmp.glob("first*"))
    meta = json.loads((in_tmp / next(n for n in first if n.endswith(".json"))).read_text())
    echo = in_tmp / "echo.ini"
    echo.write_text(f"[{command}]\n"
                    + "".join(f"{key} = {text}\n" for key, text in meta["parameters"].items()))
    assert main(command.split() + ["--config", str(echo), "--out", "second"]) == 0
    second = sorted(path.name for path in in_tmp.glob("second*"))
    assert second == [name.replace("first", "second", 1) for name in first]
    for a, b in zip(first, second):
        assert (in_tmp / a).read_bytes() == (in_tmp / b).read_bytes(), a


# Each option default that names a library value, and the value.
LIBRARY_DEFAULTS = {
    "--kmax": matching.LADDER_ENTRIES,
    "--stride": analysis.strided_axis(default_grid(), analysis.WIGNER_STRIDE),
    "--s": MIN_SQUEEZING,
    "--srange": cubic.SQUEEZING_SWEEP,
    "--grid": default_grid(),
    "--fock": REFERENCE_N,
}


@pytest.mark.parametrize("flag", sorted(LIBRARY_DEFAULTS))
def test_option_defaults_are_the_library_values(flag):
    # every command's default for the flag, where it has one, parses to the value
    defaults = [(p, command.name) for command in cli.COMMANDS for p in command.params
                if p.flag == flag and p.default is not None]
    assert defaults
    for p, name in defaults:
        grid = (default_grid(),) if p.on_grid else ()
        assert p.parse(p.default, *grid) == LIBRARY_DEFAULTS[flag], name


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    # a switch set in one call is unset in the next
    cubic = "0.075,2.486,0.171"
    assert main(["match", "compare", "--cubic", cubic, "--wigner", "--out", "a"]) == 0
    assert main(["match", "compare", "--cubic", cubic, "--out", "b"]) == 0
    assert json.loads(open("b.json").read())["parameters"]["wigner"] == "false"
    assert not os.path.exists("b_fock_wigner.csv")
    # the environment is read at each call
    for spec, echo in (("-8,8,1024", "-8.0,8.0,1024"), ("-9,9,512", "-9.0,9.0,512")):
        monkeypatch.setenv("CATGATE_GRID", spec)
        assert main(["collapse", "--fock", "0", "--out", "g"]) == 0
        assert json.loads(open("g.csv.meta.json").read())["parameters"]["grid"] == echo
    # a usage error leaves the parser fit for the next call
    with pytest.raises(SystemExit) as exc:
        main(["collapse", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(["collapse", "--fock", "0", "--out", "after"]) == 0


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_reused_parser_help_is_a_fresh_parsers(command, capsys):
    texts = []
    for parser in (cli.build_parser(), cli.build_parser.__wrapped__()):
        with pytest.raises(SystemExit):
            parser.parse_args(command.split() + ["--help"])
        texts.append(capsys.readouterr().out)
    assert texts[0].startswith(f"usage: catgate {command} ")
    assert texts[0] == texts[1]
