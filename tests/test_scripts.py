"""Smoke tests: the example scripts under scripts/ run end to end and exit 0."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, artifact", [
    ("clean_run", "chain.txt"),
    ("run_attacks", "A_historian_tamper/scenario_report.txt"),
])
def test_script_exits_zero(name, artifact, tmp_path, capsys):
    assert load_script(name).main(["--outdir", str(tmp_path)]) == 0
    assert (tmp_path / artifact).is_file()
    assert "FAIL" not in capsys.readouterr().out
