"""Self-test of the benchmark harness (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py

Drives ``run --quick`` (one round of a reduced op list per workload) in
subprocesses, exactly as a user would.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Makes every floating delay one unit too large, in any process that
#: has this file's directory on its path.
PLANTED_BUG = """
import repro.core

_floating = repro.core.compute_floating_delay


def _planted(*args, **kwargs):
    cert = _floating(*args, **kwargs)
    cert.delay += 1
    return cert


repro.core.compute_floating_delay = _planted
"""


def run_quick(args, extra_path=None):
    paths = [str(ROOT / "src")]
    if extra_path is not None:
        paths.insert(0, str(extra_path))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--quick", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    proc = run_quick(["--trace", str(out), "--json", str(out / "run.json")])
    return proc, out


def test_every_metric_is_printed_with_its_unit(quick):
    proc, __ = quick
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert any(
            line.split()[:1] == [metric["name"]]
            and metric["unit"] in line.split()
            for line in lines
        ), f"{metric['name']} [{metric['unit']}] not printed"
    assert sum(line.split()[:1] == ["error_rate"] for line in lines) == len(
        BENCHMARK["workloads"]
    )


def test_planted_wrong_answer_fails_the_run(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(PLANTED_BUG)
    out = tmp_path / "run.json"
    proc = run_quick(
        ["--workload", "table-exact", "--json", str(out)], extra_path=tmp_path
    )
    assert proc.returncode != 0
    assert "floating delay" in proc.stderr
    runs = json.loads(out.read_text())["workloads"]["table-exact"]["runs"]
    assert runs[0]["error_rate"] > 0


def _self_times(trace):
    """Self time of every span and aggregate, from the raw trace: a span's
    duration minus its children's (aggregates carry their own)."""
    child_time = {}
    for __, __, parent, __, start, end in trace["spans"]:
        child_time[parent] = child_time.get(parent, 0.0) + end - start
    for __, parent, __, __, seconds, __ in trace["aggregates"]:
        child_time[parent] = child_time.get(parent, 0.0) + seconds
    spans = sum(
        (end - start) - child_time.get(span, 0.0)
        for __, span, __, __, start, end in trace["spans"]
    )
    return spans + sum(entry[5] for entry in trace["aggregates"])


@pytest.mark.parametrize("workload", [w["name"] for w in
                                      BENCHMARK["workloads"]])
def test_layer_self_times_add_up_to_op_wall(quick, workload):
    __, out = quick
    trace = json.loads((out / f"{workload}.json").read_text())
    layers = trace["layers"]
    wall = sum(end - start for __, __, start, end in trace["ops"])
    assert wall == pytest.approx(layers["trace.op_wall_s"])
    from_spans = _self_times(trace) + layers["core.self_s"]
    assert from_spans == pytest.approx(wall, rel=0.05)
    wrapped = [
        metric["name"] for metric in BENCHMARK["per_layer"]
        if metric["unit"] == "s" and metric["name"] not in (
            "trace.op_wall_s", "core.self_s")
    ]
    from_metrics = sum(layers[name] for name in wrapped)
    assert from_metrics + layers["core.self_s"] == pytest.approx(
        wall, rel=0.05
    )
