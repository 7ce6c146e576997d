"""Smoke test of the benchmark itself (not part of tier-1).

    python -m pytest benchmarks/e2e

Short windows (0.3 s per phase): checks the result schema, the names,
zero failed ops, budget rows summing to the root span, parseable span
files, the injected-failure self-test and the refusal to run without a
program to measure.  It asserts nothing about speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import selfcheck  # noqa: E402
import spec  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
SECONDS = "0.9"


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _driver_result(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", SECONDS, "--trace", trace
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def test_declaration_is_consistent():
    assert selfcheck.static_checks() == []


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_untraced_run(workload):
    result = _driver_result(workload, "0")
    assert list(result["metrics"]) == [m["name"] for m in spec.END_TO_END]
    for m in spec.END_TO_END:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_run(workload):
    result = _driver_result(workload, "1")
    assert list(result["metrics"]) == [m["name"] for m in spec.PER_LAYER]
    for name, got in result["metrics"].items():
        assert got["value"] is not None, f"{name} is null on the seed"
    with open(os.path.join(HERE, "out", f"result-{workload}-trace1.json")) as fh:
        full = json.load(fh)
    assert full["env"]["seed"] == 3 and "git_rev" in full["env"]
    for phase, budget in full["budget"].items():
        rows = sum(budget["rows_us"].values())
        assert rows == pytest.approx(budget["root_us"], rel=0.05), phase
        assert budget["ops"] >= 1
    with open(os.path.join(HERE, "out", f"trace-{workload}.json")) as fh:
        trace = json.load(fh)
    for phase in spec.PHASES:
        spans = trace["spans"][phase]
        assert spans and spans[0]["parent"] == -1
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["parent"] < len(spans)


def test_injected_failure_is_counted():
    done = _run("--selftest-corrupt")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "IGNORED" not in done.stdout
    assert done.stdout.count("detected") == len(spec.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "p2p_netmod",
         "--seed", "0", "--seconds", SECONDS, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
