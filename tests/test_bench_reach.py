"""The benchmark's reach, checked in tier-1: one traced unit of each simulated
workload reaches every entry point `REACH` in `bench/run.py` lists for it.

A program change that stops a clean run from pulling replicas, say, would
otherwise fail only the traced benchmark. This reads `bench/` and changes
nothing there.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload, unit_fn", [
    ("clean_loop", workloads.clean_unit),
    ("attack_storm", workloads.attack_unit),
])
def test_traced_unit_reaches_every_listed_span(tmp_path, workload, unit_fn):
    tracer = tracing.Tracer()
    with tracer:
        unit = unit_fn(workloads.DEFAULT_SEED, tmp_path)
    assert unit.failed == 0, unit.failures
    assert sorted(run.REACH[workload] - set(tracer.calls())) == []
