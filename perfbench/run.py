"""Benchmark harness for qdisk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout: the library is loaded from
`src/` (PYTHONPATH), never from an installed copy, and the run fails at
once when `src/qdisk` is missing.  Standard library only.

This process never imports qdisk.  It starts every sample as a fresh
Python process (`worker.py`, or the `qdisk.cli` entry point for CLI
calls) and waits for it: a closed loop with one client, so at most one
child computes at a time.  Every result is checked for exactness; a wrong
result or a crash counts in `failed` and never as a timing.

Untraced (`--trace 0`), it first spawns SETUP_PROBES import-only children,
then takes samples until `--seconds` have passed (a sample that starts
before the end runs to completion, and is followed by one more import-only
child), and reports the median of each end-to-end metric.  Every timing is
calibrated (calib.py): the child that runs the timed code samples the
speed of a fixed reference loop fifty times a second and the interval is
rescaled to the loop's nominal speed, because the shared host's speed
drifts by up to 2x from one second to the next.  The uncalibrated medians
are printed on an info line and kept with the raw samples.

  setup_s       spawn of a fresh process to every qdisk module imported;
  solve_s       first pass over the workload's case list in a fresh process
                (cli: one `qdisk suite` process over the 128-case grid,
                spawn to exit, run through clirun.py for the sampler);
  warm_solve_s  the same list again in the same process, memo tables full
                (cli: the grid a second time through `qdisk.cli.main`);
  peak_rss_mb   peak resident set size of the process that ran both passes.

Traced (`--trace 1`) it runs one untraced reference child and two traced
children (cProfile with spans; counting wrappers) and reports the
per-layer metrics named in BENCHMARK.json, including the tracing
overhead.  Metrics whose probe target no longer exists are listed as
absent on an info line.  The traced cli run also runs the seeded stream
of STREAM_LEN short normalize/haar/inner/spherical calls, one `qdisk.cli`
process each, checks each output against the library's in-process result,
and prints their latency p50/p90 on an info line; it is kept out of the
untraced run, whose time goes to the gated metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The run's environment, raw
samples and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import probes
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
CLIRUN = Path(__file__).resolve().parent / "clirun.py"
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_PROBES = 10
TIME_LIMIT_S = 170.0  # the whole run, children included, ends before this


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Starts children one at a time, within the run's time limit."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.started = time.monotonic()
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        # fixed string hashing, so that call counts repeat exactly
        self.env["PYTHONHASHSEED"] = "0"

    def _communicate(self, argv: list, stamp: bool = False) -> tuple:
        """Run one child to its end; stamp passes it the spawn time."""
        left = TIME_LIMIT_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("time limit reached")
        spawned = time.monotonic()
        if stamp:
            argv = argv + ["--spawned-at", repr(spawned)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=self.env, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child timed out: {argv[1:4]}") from None
        finally:
            if proc.poll() is None:  # timed out or interrupted: stop it and wait
                proc.kill()
                proc.communicate()
        return proc.returncode, out, err, time.monotonic() - spawned

    def worker(self, mode: str) -> dict:
        argv = [sys.executable, str(WORKER), "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode] + (["--smoke"] if self.smoke else [])
        code, out, err, _ = self._communicate(argv, stamp=True)
        if code != 0 or not out.strip():
            raise BenchError(f"worker {mode} exited {code}: {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def cli(self, argv: list, sampled: bool = False) -> tuple:
        """(exit code, stdout, wall seconds, sampler window) of one `qdisk.cli`
        process; sampled runs it under clirun.py, else the window is None."""
        launch = [str(CLIRUN)] if sampled else ["-m", "qdisk.cli"]
        code, out, err, wall = self._communicate([sys.executable] + launch + argv)
        window = None
        if sampled:
            try:
                window = json.loads(err.strip().splitlines()[-1])
            except (IndexError, ValueError):
                code = code or 1  # no window: counted as a failed call
        return code, out, wall, window


def _median(values: list):
    return statistics.median(values) if values else None


class Tally:
    """Cases attempted and failed over a whole run, with the first errors."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def add_report(self, rep: dict) -> None:
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        self.errors += rep["errors"]

    def cli_call(self, run: Runner, argv: list, error_of, sampled: bool = False):
        """(wall seconds, sampler window) of one checked `qdisk.cli` process,
        None if it failed."""
        code, out, wall, window = run.cli(argv, sampled)
        self.attempted += 1
        err = error_of(code, out)
        if err:
            self.failed += 1
            self.errors.append(f"cli {argv}: {err}")
            return None
        return wall, window


def _setup_probe(run: Runner) -> tuple:
    """(calibrated, raw) set-up seconds of one import-only child."""
    rep = run.worker("import")
    return rep["setup_scaled"], rep["setup_s"]


def timed_run(run: Runner, seconds: float, units: dict, record: dict, tally: Tally) -> dict:
    """Untraced samples until `seconds` have passed; the end-to-end metrics."""
    setup = [_setup_probe(run) for _ in range(SETUP_PROBES)]
    solve, warm, rss, samples = [], [], [], []
    suite = workloads.suite_argv(run.smoke)
    begin = time.monotonic()
    while True:
        rep = run.worker("solve")
        tally.add_report(rep)
        rss.append(rep["peak_rss_mb"])
        passes = rep["passes"]
        samples.append(passes)
        if not passes["warm"]["failed"]:
            warm.append((passes["warm"]["scaled"], passes["warm"]["seconds"]))
        if run.workload != "cli":
            if not passes["cold"]["failed"]:
                solve.append((passes["cold"]["scaled"], passes["cold"]["seconds"]))
        else:
            call = tally.cli_call(run, suite, lambda code, out: workloads.check(
                None, "cli", suite, (code, out), run.smoke), sampled=True)
            if call is not None:
                wall, window = call
                solve.append((calib.calibrate(wall, window), wall))
        setup.append(_setup_probe(run))
        if time.monotonic() - begin >= seconds:
            break
    timings = {"setup_s": setup, "solve_s": solve, "warm_solve_s": warm}
    for name, pairs in timings.items():
        record[name] = [c for c, _ in pairs]
        record[name + "_uncalibrated"] = [r for _, r in pairs]
    record.update(peak_rss_mb=rss, passes=samples)
    print("info: uncalibrated medians " + ", ".join(
        f"{name}={_median(record[name + '_uncalibrated'])} s" for name in timings))
    return {name: {"value": _median(record[name]), "unit": unit} for name, unit in units.items()}


def stream_run(run: Runner, expected: list, record: dict, tally: Tally) -> None:
    """The cli workload's seeded stream, one cold `qdisk.cli` process per call,
    each output checked against the in-process result; latency on an info line."""
    ms = []
    for argv, want in zip(workloads.stream(run.seed, run.smoke), expected):
        call = tally.cli_call(run, argv, lambda code, out: workloads.check_stream(
            None, argv, code, out, want))
        if call is not None:
            ms.append(call[0] * 1000)
    record["invoke_ms"] = ms
    if ms:
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
        print(f"info: cli invocations n={len(ms)} p50={statistics.median(ms):.1f} ms "
              f"p90={p90:.1f} ms")


def traced_run(run: Runner, units: dict, record: dict, tally: Tally) -> dict:
    """One untraced reference child and two traced ones; the per-layer metrics."""
    reference = run.worker("solve")
    profiled = run.worker("profile")
    counted = run.worker("count")
    reports = [reference, profiled, counted]
    for rep in reports:
        tally.add_report(rep)
    if run.workload == "cli":
        stream_run(run, profiled["expected"], record, tally)
    merged = probes.merge(profiled, counted)
    metrics, absent = probes.layer_metrics(
        units, merged, profiled["spans"], [r["import_s"] for r in reports],
        profiled["passes"]["cold"]["seconds"], reference["passes"]["cold"]["seconds"])
    if absent:
        print(f"info: absent metrics (probe target missing): {', '.join(absent)}")
    record.update(spans=profiled["spans"], profile=profiled["profile"],
                  counters=merged["counters"], absent=absent)
    return metrics


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qdisk").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "loadavg_start": os.getloadavg(),
        "commit": _commit(), "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny case lists, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qdisk" / "__init__.py").is_file():
        print(f"error: no qdisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(args)
    print("env: " + json.dumps(env))
    record = {"env": env}
    run = Runner(args.workload, args.seed, args.smoke)
    tally = Tally()
    try:
        if args.trace:
            metrics = traced_run(run, units, record, tally)
        else:
            metrics = timed_run(run, args.seconds, units, record, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if tally.attempted == 0:
        print("error: no case was attempted", file=sys.stderr)
        return 1
    record["errors"] = tally.errors[:50]
    for err in tally.errors[:20]:
        print(f"failed: {err}", file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
