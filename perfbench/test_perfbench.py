"""The benchmark's own tests: output schema and a short run of each workload.

    python3 -m pytest -q perfbench

No test asserts a timing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    layer_map = run.load_layer_map()
    assert BENCH["per_layer"] == [{k: e[k] for k in ("name", "unit", "better")} for e in layer_map]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    metric_names = set(run.END_TO_END)
    for e in layer_map:
        assert set(e["moves"]) <= metric_names
        for w in e["on"] + e["no_change_on"]:
            assert w.split(":")[0] in run.WORKLOADS


def test_host_speed_scales_by_the_samples_around_each_time():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    speed.starts = [0.0, 0.1, 0.2, 10.0]
    speed.seconds = [ref, 3 * ref, 5 * ref, ref / 2]
    assert speed.factor(0.15) == 0.25  # mean of the samples at 0.1 and 0.2
    assert speed.factor(-1.0) == 1.0  # before the first sample
    assert speed.factor(10.5) == 2.0  # after the last sample
    assert speed.overall() == pytest.approx(0.5)


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str]) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for v in result["metrics"].values():
        assert isinstance(v["value"], float)
    return result


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0")
    result = check_result(proc, {m["name"]: m["unit"] for m in BENCH["end_to_end"]})
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_traced_run_reports_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    result = check_result(proc, {m["name"]: m["unit"] for m in BENCH["per_layer"]})
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert (ROOT / ".perfbench_out" / f"spans-{workload}.csv").is_file()


def test_fails_without_murel_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
