"""Smoke test: scripts/scaling.py runs end to end and records one row per size."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scaling_records_one_row_per_size(tmp_path, capsys):
    out = tmp_path / "scaling.json"
    assert load_script("scaling").main(["--minutes", "1", "2", "--out", str(out)]) == 0
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert [row["minutes"] for row in runs] == [1, 2]
    # One clean seed-42 interval logs 17 events, CHECK_OK summaries included.
    assert [row["events"] for row in runs] == [17, 34]
    assert all(row["wall_s"] > 0 and row["audit_s"] > 0 and row["peak_rss_mb"] > 0
               for row in runs)
