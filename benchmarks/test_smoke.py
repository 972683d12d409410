"""Smoke test of the benchmark harness at toy sizes.

Run from the checkout root:  python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("exp1_sweep", "search_scenario", "exp2_banked", "noiseless_decode")
SEARCHING = ("search_scenario", "exp2_banked")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def report():
    done = _run("--size", "toy", "--seconds", "1", "--seed", "3")
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _printed(lines, kind, workload):
    """name -> (value, unit) of the ``<kind> <workload> <name> <value> <unit>`` lines."""
    out = {}
    for line in lines:
        parts = line.split(" ")
        if parts[0] == kind and parts[1] == workload:
            assert len(parts) == 5 and parts[4], line
            out[parts[2]] = (parts[3], parts[4])
    return out


def test_every_metric_printed_with_unit_and_no_errors(report):
    assert json.loads(report[-1])["correct"] is True
    facts = {line.split(" ")[1] for line in report if line.startswith("fact ")}
    assert {"nproc", "cpu_model", "python", "numpy", "blas", "blas_threads", "secest_threads"} <= facts
    for workload in WORKLOADS:
        metrics = _printed(report, "metric", workload)
        expected = {**{n: u for n, (u, _) in run.END_TO_END.items()}, **run.REPORT_ONLY}
        for name, unit in expected.items():
            for suffix in ("", "_traced"):
                value, shown_unit = metrics[name + suffix]
                assert shown_unit == unit
                if name.endswith(("exhaustive_s_p50", "guided_s_p50")) and workload not in SEARCHING:
                    assert value == "n/a"
                else:
                    float(value)
        assert metrics["tracing_overhead_s"][1] == "s"
        assert float(metrics["error_rate"][0]) == 0.0
        assert float(metrics["error_rate_traced"][0]) == 0.0
        layers = _printed(report, "layer", workload)
        for name, (unit, _) in spans.LAYER_METRICS.items():
            assert layers[name][1] == unit
            float(layers[name][0])


def test_last_line_follows_contract():
    for trace, table in (("0", run.END_TO_END), ("1", spans.LAYER_METRICS)):
        done = _run("--workload", "noiseless_decode", "--size", "toy", "--seconds", "0.5",
                    "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(table)
        for name, (unit, _) in table.items():
            assert result["metrics"][name]["unit"] == unit


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == spans.LAYER_METRICS
    assert doc["run_seconds"] == run.DEFAULT_SECONDS


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "exp1_sweep", "--seconds", "1", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
