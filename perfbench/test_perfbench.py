"""Tests of the benchmark itself, on smoke-size case lists.

Each test starts the harness (or a worker) as a child process, the way the
benchmark is run, so no probe is ever installed in the test process.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calib
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# what a copy of the benchmark leaves out: caches, results, and this file,
# which pytest would otherwise collect again from the copy
COPY_IGNORE = shutil.ignore_patterns("__pycache__", "out", "test_*")


@pytest.fixture
def scratch(request):
    """An empty directory under perfbench/out/, so tests write only inside
    the checkout; removed afterwards."""
    path = BENCH_DIR / "out" / "tests" / request.node.name.replace("[", "-").rstrip("]")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_bench(root: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = last_json(run_bench(ROOT, workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    result = last_json(run_bench(ROOT, workload, trace=1))
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    shares = [v["value"] for v in result["metrics"].values() if v["unit"] == "share"]
    assert all(0 <= s <= 1 for s in shares)


def test_calibration_rescales_to_the_nominal_reference_speed():
    # a host running the reference at half speed halves the calibrated time,
    # after the sampler's own share is taken out
    assert calib.calibrate(2.5, {"readings": 3, "spent": 0.5, "speed": 0.5}) == \
        pytest.approx(1.0)
    sampler = calib.Sampler().start()
    try:
        mark = sampler.mark()
        end = time.perf_counter() + 10 * calib.PERIOD_S
        while time.perf_counter() < end:
            pass
        window = sampler.window(mark)
    finally:
        sampler.stop()
    assert window["readings"] >= 3 and window["speed"] > 0 and window["spent"] > 0


def test_metric_map_names_match_spec():
    spec_layer = {m["name"] for m in SPEC["per_layer"]}
    spec_e2e = {m["name"] for m in SPEC["end_to_end"]}
    mapped = set()
    for entry in json.loads((BENCH_DIR / "metric_map.json").read_text())["layers"]:
        mapped.update(entry["metrics"])
        for key in ("moves", "no_change"):
            for metric, names in entry.get(key, {}).items():
                assert metric in spec_e2e
                assert set(names) <= set(workloads.WORKLOADS)
    assert mapped == spec_layer


def _checkout_copy(scratch: Path) -> Path:
    root = scratch / "checkout"
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH_DIR, root / "perfbench", ignore=COPY_IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


PLANTED = """

_planted_original = verify_addition


def verify_addition(*args, **kwargs):  # planted by the benchmark's tests
    verdict = _planted_original(*args, **kwargs)
    verdict.passed = False
    return verdict
"""


@pytest.mark.parametrize("workload", ["addition", "cli"])
def test_planted_failed_verdict_lands_in_failed(scratch, workload):
    root = _checkout_copy(scratch)
    with open(root / "src" / "qdisk" / "tensor.py", "a") as fh:
        fh.write(PLANTED)
    result = last_json(run_bench(root, workload, trace=0))
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    if workload == "addition":
        # every pass failed, so no timing was taken from it
        assert result["failed"] == result["attempted"]
        assert result["metrics"]["solve_s"]["value"] is None


def test_fails_without_the_program(scratch):
    shutil.copytree(BENCH_DIR, scratch / "perfbench", ignore=COPY_IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = run_bench(scratch, "addition", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


RENAMED = """
import json, sys
import probes
probes.PROFILE_GROUPS["mono_mul"] = ["qdisk.zalgebra:_renamed_mono_mul"]
probes.MEMO_TABLES["mono"] = "qdisk.zalgebra:_RENAMED_CACHE"
import qdisk.cli, qdisk.uqaction
import workloads
counting = probes.Counters()
absent = counting.install()
absent += probes.Spans().install(counting.values)
import cProfile
prof = cProfile.Profile()
with counting.timed():
    prof.enable()
    workloads.run_pass(qdisk, "addition", [(1, 1, 1)], True)
    prof.disable()
merged = probes.merge({"profile": probes.profile_summary(prof), "counters": {}, "absent": []},
                      {"counters": counting.values, "absent": absent})
units = {m: "count" for m in sys.argv[1:]}
metrics, missing = probes.layer_metrics(units, merged, [], [0.1], 1.0, 1.0)
print(json.dumps({"metrics": sorted(metrics), "absent": sorted(missing)}))
"""


def test_renamed_private_target_reports_absent_not_crash():
    names = [m["name"] for m in SPEC["per_layer"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]))
    proc = subprocess.run([sys.executable, "-c", RENAMED, *names], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["absent"] == ["zalgebra.memo.entries", "zalgebra.mono_mul.calls",
                             "zalgebra.mono_mul.miss_ratio"]
    assert "qfield.poly_gcd.calls" in out["metrics"]
