import json
import math
import re

import numpy as np
import pytest

from catgate import FockResource, analysis, cli, cubic, gate, make_vacuum, matching
from catgate.cli import _write_csv, main
from catgate.numerics import default_grid


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


def test_wigner_vacuum_excludes_resources():
    assert main(["wigner", "--vacuum", "--fock", "5"]) == 2
    assert main(["wigner", "--vacuum", "--ym", "3"]) == 2


def test_wigner_ym_override_for_cubic():
    args = ["wigner", "--cubic", "0.075,2.486,0.3", "--ym", "0.5",
            "--stride", "16", "--out", "wo"]
    assert main(args) == 0
    meta = json.loads(open("wo.csv.meta.json").read())
    assert meta["parameters"]["ym"] == "0.5"


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
    # a grid table (two axes and W over them) writes the bytes of the (x, y, W)
    # columns it stands for
    x = np.array([-1.5, -0.0, 1.0 / 3.0, 1e22])
    y = np.array([-2.0, 0.25, 1e-300, 123456789012345.0, 3.0])
    w = np.random.default_rng(0).normal(size=(4, 5)) * 10.0 ** np.arange(-6, 4, 2)
    _write_csv("grid.csv", "title", {"x": x, "y": y, "W": w})
    xs, ys = np.meshgrid(x, y, indexing="ij")
    _write_csv("long.csv", "title", {"x": xs.ravel(), "y": ys.ravel(), "W": w.ravel()})
    assert open("grid.csv").read() == open("long.csv").read()


def test_scan_mixfid_monotone():
    args = ["scan", "mixfid", "--fock", "5", "--d", "0..1.4", "--points", "8", "--out", "sm"]
    assert main(args) == 0
    table = read_csv("sm.csv")
    inf = table["infidelity_mix"]
    assert np.all(np.diff(inf) >= -1e-12)


def test_scan_squeeze_matched_row():
    args = ["scan", "squeeze", "--gamma", "0.075", "--ym", "2.486",
            "--srange", "0.111,0.231,5", "--out", "sq"]
    assert main(args) == 0
    table = read_csv("sq.csv")
    row = int(np.flatnonzero(np.isclose(table["s"], 0.171))[0])
    assert table["P"][row] == pytest.approx(0.098, abs=3e-3)


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
