"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py -q

Each test runs bench/run.py with --seconds 1, the smallest run: one
untraced pass, plus one traced pass under --trace 1.  About two minutes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
KNOWN_FAILURES = {"synth_large": {"synth_large.grid_shape"}}
# Work counts that must repeat exactly, whatever the seed.
EXACT_COUNTS = ("field.b3.pairs", "quad.integrate_weighted.nodes",
                "specfun.bessel_scalar.calls", "scene.algebraic_moment.calls",
                "field.asympt_coefficients.calls")
# The counts that show each workload's dominant layer at work.
ACTIVE_COUNTS = {
    "sweep_noisy": ("quad.integrate_weighted.nodes", "scene.algebraic_moment.calls",
                    "field.asympt_coefficients.calls", "field.b3.pairs"),
    "verify_specfun": ("specfun.bessel_scalar.calls",
                       "specfun.tail_integral_quadrature.calls"),
    "synth_large": ("field.b3.pairs", "quad.write_field_csv.bytes"),
}


def bench(workload: str, seed: int, trace: int, *extra: str, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def record_of(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def assert_metrics(result: dict, group: str) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_gate(workload):
    result = result_of(bench(workload, 3, 0))
    assert_metrics(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["attempted"] > 0
    failed = {name for p in record_of(workload, 3, 0)["passes"] for name in p["failed"]}
    assert failed <= KNOWN_FAILURES.get(workload, set())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_exact_counts(workload):
    first, second = (result_of(bench(workload, seed, 1)) for seed in (3, 4))
    for result in (first, second):
        assert_metrics(result, "per_layer")
        assert result["correct"]
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name in ACTIVE_COUNTS[workload]:
        assert first["metrics"][name]["value"] > 0, name
    spans = record_of(workload, 4, 1)["spans"]
    assert spans and all(len(span) == 5 for span in spans)


def test_perturbed_identity_fails_the_gate():
    result = result_of(bench("verify_specfun", 3, 0, "--perturb", "tail:j1_over_x_p1"))
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0
    failed = record_of("verify_specfun", 3, 0)["passes"][0]["failed"]
    assert "verify_specfun.pass[tail:j1_over_x_p1]" in failed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 3, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
