"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python3 -m pytest -q benchmarks/tests
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
# Metrics printed by name besides those in BENCHMARK.json, by workload and
# trace flag.
BUILDS = ["compositions.build_s", "compositions.build_rss_mb",
          "compositions.partitions", "compositions.tie_groups"]
RAW = ["setup_raw_s", "wall_raw_s", "reference_raw_s", "error_rate"]
PRINTED = {
    ("exact-tables", 0): RAW,
    ("mc-table", 0): RAW + ["samples_per_s"],
    ("stream-roundtrip", 0): RAW + ["symbols_per_s", "block_p50_ms", "block_p99_ms"],
    ("exact-tables", 1): BUILDS + [
        "analyzer.average_info_exact_s", "analyzer.shaped_average_info_exact_s",
        "analyzer.rank_info_series_s"],
    ("mc-table", 1): [
        "montecarlo.estimate_table_s", "montecarlo.estimate_average_info_s", "montecarlo.estimate_shaped_average_info_s",
        "montecarlo.sample_s", "montecarlo.info_s", "montecarlo.samples"],
    ("stream-roundtrip", 1): BUILDS + [
        "compositions.locate_string_ms.p50", "compositions.strings_before_class_ms.p50",
        "bijection.shape_ms.p50", "bijection.shape_ms.p99",
        "bijection.unshape_ms.p50", "bijection.unshape_ms.p99",
        "bijection.string_rank_ms.p50", "bijection.string_unrank_ms.p50",
        "codec.encode_ms.p50", "codec.encode_ms.p99",
        "codec.decode_ms.p50", "codec.decode_ms.p99",
        "codec.payload_bits_mean", "codec.redundancy_bits_mean"],
}


def run_tiny(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads_the_driver_runs():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    report = lines[:-1]
    for metric in spec:
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()[2:]
            for line in report
        ), metric["name"]
    for name in PRINTED[workload, trace]:
        assert any(name in line for line in report), name


def test_wrong_table1_reference_is_a_failure():
    wrong = dict(workloads.TABLE1_REFERENCE)
    wrong[4] = (5.297, 5.050)  # published value is 5.296
    result = workloads.execute(
        workloads.ExactTables(0, "tiny", table1=wrong), NullTracer(), time.monotonic()
    )
    assert result["failed"] == 1
    assert "table1 a=4 I(x)" in result["failures"][0]


def test_wrong_table2_reference_is_a_failure():
    wrong = dict(workloads.TABLE2_REFERENCE)
    wrong[7] = (276.350 + 0.5, 274.471)
    result = workloads.execute(
        workloads.McTable(0, "tiny", table2=wrong), NullTracer(), time.monotonic()
    )
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "table2 mc a=7 I(x)" in result["failures"][0]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_tiny(WORKLOAD_NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("kind", [workloads.ExactTables, workloads.McTable])
def test_times_are_scaled_by_the_workloads_reference(kind):
    result = workloads.execute(kind(0, "tiny"), NullTracer(), time.monotonic())
    assert len(result["reference_s"]) >= kind.passes
    want = kind.reference_s / statistics.fmean(result["reference_s"])
    assert result["scale"] == pytest.approx(want)
