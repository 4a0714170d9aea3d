"""Smoke test: scripts/scaling.py runs end to end and records one row per
size, each the median of its repeated runs."""

import importlib.util
import json
from pathlib import Path

import cryptography

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scaling_records_one_row_per_size(tmp_path, capsys):
    scaling = load_script("scaling")
    out = tmp_path / "scaling.json"
    assert scaling.main(["--minutes", "1", "2", "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    # Every figure rests on the crypto library's speed, so its version is kept.
    assert record["host"]["cryptography"] == cryptography.__version__
    runs = record["runs"]
    assert [row["minutes"] for row in runs] == [1, 2]
    # One clean seed-42 interval logs 13 events, CHECK_OK summaries included.
    assert [row["events"] for row in runs] == [13, 26]
    assert all(row["wall_s"] > 0 and row["audit_s"] > 0 and row["peak_rss_mb"] > 0
               for row in runs)
    for key in ("wall_s", "audit_s"):
        assert all(row[f"{key}_range"][0] <= row[key] <= row[f"{key}_range"][1]
                   for row in runs)
    # The sizes are interleaved: each is run once before any is run again.
    printed = [line.split(" (")[0] for line in capsys.readouterr().out.splitlines()
               if line.startswith("m=")]
    assert printed == ["m=1", "m=2"] * scaling.REPEATS


def test_scaling_row_is_the_median_of_its_runs():
    rows = [{"wall_s": w, "audit_s": a, "peak_rss_mb": p, "events": 17}
            for w, a, p in [(0.3, 0.002, 30.0), (0.1, 0.001, 28.0), (0.2, 0.004, 29.0)]]
    assert load_script("scaling").summarize(1, rows) == {
        "minutes": 1, "wall_s": 0.2, "wall_s_range": [0.1, 0.3],
        "audit_s": 0.002, "audit_s_range": [0.001, 0.004], "peak_rss_mb": 29.0, "events": 17}
