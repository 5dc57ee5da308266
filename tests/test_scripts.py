import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
