"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench

Runs every workload for a few ops, untraced and traced, and checks that each
metric named in BENCHMARK.json is printed with its unit.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    out = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--tiny",
    )
    assert out.returncode == 0, out.stderr
    *_, details_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    details = json.loads(details_line)["details"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert details["seed"] == 3 and details["machine"]["blas_threads"] == "1"
    if not trace:
        assert details["samples"] == result["attempted"] == len(details["latencies_ms"])
        assert len(details["factors"]) == details["samples"]
        assert details["beyond_p90"] >= 10
        assert set(details["wall_clock"]) >= {"goodput_ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s"}


def test_duality_roundtrip_keeps_its_failures():
    out = run_bench(ROOT, "--workload", "duality_roundtrip", "--seed", "5", "--seconds", "0.2", "--tiny")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] > 0
    assert result["metrics"]["pass_rate"]["value"] == 1 - result["failed"] / result["attempted"]


def test_inputs_follow_the_seed(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
    finally:
        del sys.path[:2]

    def files(seed):
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        ops = workloads.build("cli_files", np.random.default_rng(seed), workloads.TINY, out)
        return [op.cls for op in ops], {p.name: p.read_text() for p in out.iterdir()}

    assert files(1) == files(1)
    assert files(1)[1] != files(2)[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    out = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert out.stdout == ""


def test_probe_scales_by_the_bracketing_times():
    sys.path.insert(0, str(BENCH))
    try:
        import speed
    finally:
        sys.path.remove(str(BENCH))

    for memory in (False, True):
        probe = speed.SpeedProbe(memory)
        factors = [probe.factor() for _ in range(3)]
        t, ref = probe.times, probe.reference_s
        assert len(t) == 3
        assert factors[1:] == [2 * ref / (t[0] + t[1]), 2 * ref / (t[1] + t[2])]
