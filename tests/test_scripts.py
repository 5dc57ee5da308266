import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from catgate.cli import main as catgate_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden" / "script_outputs.sha256"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_script_outputs(root):
    """Every file of both scripts, the comparison with its ladder, and of
    ``match compare --fock 3 --entry 1``, under ``root``."""
    load_script("run_fock_gate_report").run(str(root / "fock_gate"))
    load_script("run_gate_comparison").run(str(root / "comparison"), True)
    (root / "match").mkdir()
    assert catgate_main(["match", "compare", "--fock", "3", "--entry", "1",
                         "--out", str(root / "match" / "compare_fock3_entry1")]) == 0


def test_script_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
    # flags a change of any output byte; it does not judge it
    monkeypatch.delenv("CATGATE_GRID", raising=False)
    outputs = tmp_path / "outputs"
    write_script_outputs(outputs)
    found = {path.relative_to(outputs).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(outputs.rglob("*")) if path.is_file()}
    expected = {name: digest for digest, name in
                (line.split("  ", 1) for line in GOLDEN.read_text().splitlines())}
    moved = sorted(name for name in expected.keys() | found.keys()
                   if expected.get(name) != found.get(name))
    if moved:
        manifest = tmp_path / GOLDEN.name
        manifest.write_text("".join(f"{digest}  {name}\n" for name, digest in found.items()))
    assert not moved, (
        f"{len(moved)} script outputs differ from tests/golden/{GOLDEN.name}: "
        f"{', '.join(moved)}.  Run scripts/compare_outputs.py on the parent commit's "
        f"outputs against these ({outputs}) to see by how much; a change made on "
        f"purpose replaces the manifest with {tmp_path / GOLDEN.name}")
    shutil.rmtree(outputs)  # 67 MB that pytest would keep for its last three runs


@pytest.mark.parametrize(
    "name,extra", [("run_fock_gate_report", ()), ("run_gate_comparison", (False,))]
)
def test_failing_step_stops_the_script_with_its_exit_code(name, extra, tmp_path, monkeypatch):
    # a malformed grid makes the first catgate step a usage error (code 2)
    monkeypatch.setenv("CATGATE_GRID", "not,a,grid")
    with pytest.raises(SystemExit) as exc:
        load_script(name).run(str(tmp_path), *extra)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []  # no later step ran


def write_tree(root, cell="0.25", number="0.1"):
    root.mkdir()
    (root / "w.csv").write_text(f"# catgate wigner\nx,W\n0,0.5\n1,{cell}\n")
    (root / "w.json").write_text(f'{{"P": {number}, "parameters": {{"ym": "0"}}}}')


def test_compare_outputs_lists_identical_trees(tmp_path, capsys):
    write_tree(tmp_path / "old")
    write_tree(tmp_path / "new")
    assert load_script("compare_outputs").main(tmp_path / "old", tmp_path / "new") == 0
    assert capsys.readouterr().out.splitlines() == [
        "byte-identical: 2 of 2 files", "  w.csv", "  w.json"]


@pytest.mark.parametrize("changed, lines", [
    ({"cell": "0.2500001"},
     ["w.csv:", "  W  1e-07  relative 4e-07  scaled 2e-07", "  x  0  relative 0  scaled 0"]),
    ({"number": "0.1003"},
     ["w.json:", "  .P  0.0003  relative 0.003  scaled 0.003",
      "  .parameters.ym  0  relative 0  scaled 0"]),
])
def test_compare_outputs_reports_the_largest_difference(tmp_path, capsys, changed, lines):
    write_tree(tmp_path / "old")
    write_tree(tmp_path / "new", **changed)
    assert load_script("compare_outputs").main(tmp_path / "old", tmp_path / "new") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "byte-identical: 1 of 2 files"
    assert out[2:] == lines


def test_compare_outputs_shows_a_tail_loss_in_relative_terms(tmp_path, capsys):
    # a value off by 100% but tiny in absolute terms
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    (tmp_path / "old" / "p.csv").write_text("y,P\n0,0.4\n9,1e-20\n")
    (tmp_path / "new" / "p.csv").write_text("y,P\n0,0.4\n9,2e-20\n")
    assert load_script("compare_outputs").main(tmp_path / "old", tmp_path / "new") == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        "  P  1e-20  relative 1  scaled 2.5e-20", "  y  0  relative 0  scaled 0"]


@pytest.mark.parametrize("old, new, lines", [
    # roundoff in a table's tail cells: large relative, small against the peak
    ("x,W\n0,0.3\n1,-2e-17\n2,label\n", "x,W\n0,0.3\n1,1e-17\n2,label\n",
     ["  W  3e-17  relative 1.5  scaled 1e-16", "  x  0  relative 0  scaled 0"]),
    ("P\n0\n0\n", "P\n0\n1e-300\n", ["  P  1e-300  relative 0  scaled inf"]),
])
def test_compare_outputs_scales_a_difference_by_the_column_peak(tmp_path, capsys,
                                                                old, new, lines):
    for side, text in (("old", old), ("new", new)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "w.csv").write_text(text)
    assert load_script("compare_outputs").main(tmp_path / "old", tmp_path / "new") == 1
    assert capsys.readouterr().out.splitlines()[2:] == lines


class ClosedStdout:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_compare_outputs_keeps_its_verdict_when_stdout_closes(tmp_path, monkeypatch):
    write_tree(tmp_path / "old")
    write_tree(tmp_path / "new")
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert load_script("compare_outputs").main(tmp_path / "old", tmp_path / "new") == 0


def test_compare_outputs_script_exits_quietly_into_a_closed_pipe(tmp_path):
    # `compare_outputs.py OLD NEW | head -1`: output the reader never takes is
    # dropped, and the exit code is still the comparison's own
    write_tree(tmp_path / "old")
    write_tree(tmp_path / "new")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, str(SCRIPTS / "compare_outputs.py"),
                               str(tmp_path / "old"), str(tmp_path / "new")],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")
