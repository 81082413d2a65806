"""Smoke test of the benchmark's own code path at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py

Runs every workload for one untraced and one traced round, with the
output checks, and compares the metric names with BENCHMARK.json; and
checks the host-speed adjustment on made-up probe times.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _declared(section):
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_workloads_run_check_and_trace_at_tiny_sizes():
    end_to_end, per_layer = _declared("end_to_end"), _declared("per_layer")
    for workload in workloads.WORKLOADS:
        result, report = run.benchmark(workload, seed=5, seconds=0, traced=True, tiny=True)
        items = workloads.build(workload, 5, tiny=True)[1]
        assert (result["correct"], result["failed"]) == (True, 0), report["failures"]
        assert result["attempted"] == 2 * len(items)
        assert {k: m["unit"] for k, m in result["metrics"].items()} == per_layer
        assert {k: m["unit"] for k, m in report["end_to_end"].items()} == end_to_end
        assert all(m["value"] > 0 for m in report["end_to_end"].values())


def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 7, 1) == workloads.build(workload, 7, 1)
    general = [workloads.build("reports-general", s, v) for s, v in ((7, 0), (8, 0), (7, 1))]
    assert general[0] != general[1] and general[0] != general[2]


def test_a_wrong_certificate_fails_its_check(tmp_path):
    files, _ = workloads.build("reports-general", 5, tiny=True)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(files["e1"]))
    pkg = run.import_package()
    argv = ["envelope", "--input", str(path), "--certificates"]
    code, _, text = run.run_item(pkg.cli.main, argv)
    assert code == 0 and run.checks.check(pkg, argv, text) is None
    payload = json.loads(text)
    payload["certificates"][-1][0][1] = "1/2"
    assert run.checks.check(pkg, argv, json.dumps(payload)) is not None


def test_host_clock_divides_wall_time_by_the_slowness_around_it(monkeypatch):
    ref = hostspeed.REFERENCE_UNIT_S
    probes = iter([2 * ref, 2 * ref, ref])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    clock = hostspeed.HostClock()
    assert abs(clock.adjust(1.0) - 0.5) < 1e-12  # slow before and after
    assert abs(clock.adjust(1.5) - 1.0) < 1e-12  # slowness 1.5 across the span
    assert abs(clock.mean_slowness() - 5 / 3) < 1e-12
