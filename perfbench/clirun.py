"""`python3 -m qdisk.cli ARGS` with the machine-speed sampler running.

    python3 perfbench/clirun.py ARGS...

Starts a calib.Sampler, runs the qdisk.cli module as __main__ with ARGS,
and on the way out prints the sampler's window as one JSON line on
standard error, after whatever the CLI printed there.  Standard output
and the exit code are the CLI's own.
"""

import json
import runpy
import sys

import calib


def main() -> int:
    sampler = calib.Sampler().start()
    sys.argv = ["qdisk.cli"] + sys.argv[1:]
    code = 0
    try:
        runpy.run_module("qdisk.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        sampler.stop()
        window = sampler.window((0, 0.0))
        sys.stdout.flush()
        print(json.dumps(window), file=sys.stderr)
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
