"""One benchmark sample, run by perfbench/run.py in a fresh Python process.

    python3 perfbench/worker.py --workload W --seed N --mode MODE
                                [--smoke] [--spawned-at T]

The qdisk import comes first, so that the time from the harness's spawn
(`--spawned-at`, a time.monotonic() reading, which is system-wide on Linux)
to the end of the import is the set-up time a user pays.  Only the
machine-speed sampler (calib.py) starts before it; it runs through the
import, and in solve mode through both passes, so that their times are
also reported calibrated ("setup_scaled", and "scaled" per pass).

Modes:
  import   import qdisk and report the set-up time only;
  solve    run the case list twice in this process (cold, then warm with the
           memo tables full), untraced;
  profile  the cold pass under cProfile, with spans around each pass,
           case and public layer call;
  count    the cold pass with the counting wrappers installed.

The cli workload's passes run the suite grid through `qdisk.cli.main`; its
traced modes also run the seeded invocation stream in-process.  The report
is one JSON object on the last line of standard output.
"""

import time

_IMPORT_START = time.monotonic()
import calib  # noqa: E402  (standard library only)

SAMPLER = calib.Sampler().start()
import qdisk.cli  # noqa: E402  (imports every layer but uqaction)
import qdisk.uqaction  # noqa: E402,F401
IMPORTED_AT = time.monotonic()
IMPORT_WINDOW = SAMPLER.window((0, 0.0))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402


def _passes(workload: str, seed: int, smoke: bool, traced: bool) -> list:
    """(pass name, workload the cases belong to, case list) in run order.

    Traced children skip the warm pass, whose cost under tracing would
    push a traced run past its time limit; the cli stream runs in-process
    in them, since each of its calls is too small to trace on its own."""
    case_list = workloads.cases(workload, seed, smoke)
    if not traced:
        return [("cold", workload, case_list), ("warm", workload, case_list)]
    if workload == "cli":
        return [("cold", "cli", case_list), ("stream", "stream", workloads.stream(seed, smoke))]
    return [("cold", workload, case_list)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("import", "solve", "profile", "count"), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=_IMPORT_START)
    args = parser.parse_args(argv)

    setup = IMPORTED_AT - args.spawned_at
    report = {"setup_s": setup, "setup_scaled": calib.calibrate(setup, IMPORT_WINDOW),
              "import_s": IMPORTED_AT - _IMPORT_START}
    if args.mode != "solve":  # only untimed work follows, or traced work that must not see ticks
        SAMPLER.stop()
    if args.mode == "import":
        print(json.dumps(report))
        return 0

    q = qdisk
    traced = args.mode != "solve"
    counters: dict = {}
    absent: list = []
    if args.mode == "profile":
        spans = probes.Spans()
        absent += spans.install(counters)
        profiler = cProfile.Profile()

        @contextlib.contextmanager
        def pass_context(name):
            with spans.span(f"pass.{name}"):
                profiler.enable()
                try:
                    yield
                finally:
                    profiler.disable()

        def on_case(case):
            return spans.span(f"case.{case}")
    elif args.mode == "count":
        counting = probes.Counters()
        absent += counting.install()
        counters = counting.values

        def pass_context(name):
            return counting.timed()
        on_case = None
    else:
        def pass_context(name):
            return contextlib.nullcontext()
        on_case = None

    passes = {}
    attempted = failed = 0
    errors = []
    for name, workload, case_list in _passes(args.workload, args.seed, args.smoke, traced):
        res = workloads.run_pass(q, workload, case_list, args.smoke,
                                 timed=lambda name=name: pass_context(name), on_case=on_case,
                                 sampler=None if traced else SAMPLER)
        passes[name] = {"seconds": res["seconds"], "scaled": res["scaled"], "failed": res["failed"],
                        "case_seconds": res["case_seconds"]}
        attempted += res["attempted"]
        failed += res["failed"]
        errors += res["errors"]

    SAMPLER.stop()  # before exit too: a tick during shutdown would kill the process
    report.update(passes=passes, attempted=attempted, failed=failed, errors=errors[:20],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if args.mode == "profile":
        report["profile"] = probes.profile_summary(profiler)
        report["spans"] = spans.records
        if args.workload == "cli":  # what each call of the stream must print
            report["expected"] = [workloads.expected_output(q, a)
                                  for a in workloads.stream(args.seed, args.smoke)]
    report.update(counters=counters, absent=absent)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
