"""Smoke tests: the example scripts under scripts/ run end to end and exit 0."""

import importlib.util
import json
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


def test_scaling_records_one_row_per_size(tmp_path, capsys):
    out = tmp_path / "scaling.json"
    assert load_script("scaling").main(["--minutes", "1", "2", "--out", str(out)]) == 0
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert [row["minutes"] for row in runs] == [1, 2]
    # One clean seed-42 interval logs 17 events, CHECK_OK summaries included.
    assert [row["events"] for row in runs] == [17, 34]
    assert all(row["wall_s"] > 0 and row["audit_s"] > 0 and row["peak_rss_mb"] > 0
               for row in runs)
