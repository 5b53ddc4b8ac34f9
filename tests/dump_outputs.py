"""Dump the outputs of qdisk over a fixed battery, one JSON record a line, and print their sha256.

Two trees whose dumps have the same sha256 give byte-identical answers on the battery:

- the 128-case `qdisk suite` grid of the benchmark, plain and `--json`;
- `verify-addition --json` at (4,4,1), (5,5,2), (6,6,2), (2,3,1) and (5,3,3), with and without `--precursor`;
- the 100 seed-1 CLI calls of the benchmark's `workloads.stream` (normalize, haar, inner, spherical);
- `spherical` and every `assoc_spherical` for n = 3, 4 and l, m <= 5;
- `scaled_lhs` and `scaled_rhs` for l, m <= 4 and alpha <= 3, in both variants.

Each CLI record holds the exit code and stdout of `cli.main`, its timings (`millis`) masked.

    PYTHONPATH=src python tests/dump_outputs.py [OUT]

prints the record count and the sha256, and writes the dump to OUT when given.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from qdisk import cli
from qdisk.diskpoly import assoc_spherical, spherical
from qdisk.tensor import VARIANTS, scaled_lhs, scaled_rhs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the benchmark's case lists, read only)

VERIFY_CASES = [(4, 4, 1), (5, 5, 2), (6, 6, 2), (2, 3, 1), (5, 3, 3)]
MILLIS = re.compile(r'(millis"?[=:] ?)\d+')


def run(argv: list) -> list:
    """[exit code, stdout] of the CLI on argv, in this process, with `millis` masked."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return [code, MILLIS.sub(r"\1*", buf.getvalue())]


def records() -> list:
    """The battery's records, each a JSON line [kind, arguments, output]."""
    suite = workloads.suite_argv(False)
    out = [["suite", argv, run(argv)] for argv in (suite, suite + ["--json"])]
    for (l, m, alpha), precursor in ((case, p) for case in VERIFY_CASES for p in (False, True)):
        argv = ["verify-addition", "--l", str(l), "--m", str(m), "--alpha", str(alpha), "--json"]
        argv += ["--precursor"] if precursor else []
        out.append(["verify", argv, run(argv)])
    out += [["stream", argv, run(argv)] for argv in workloads.stream(1, False)]
    for n in (3, 4):
        for l in range(6):
            for m in range(6):
                out.append(["spherical", [l, m, n], spherical(l, m, n).to_json()])
                out += [["assoc_spherical", [l, m, r, s, n], assoc_spherical(l, m, r, s, n).to_json()]
                        for r in range(l + 1) for s in range(m + 1)]
    for variant in VARIANTS:
        for l in range(5):
            for m in range(5):
                for alpha in range(1, 4):
                    for name, side in (("scaled_lhs", scaled_lhs), ("scaled_rhs", scaled_rhs)):
                        inv, x = side(l, m, alpha, variant)
                        out.append([name, [l, m, alpha, variant], [inv.to_json(), x.to_json()]])
    return [json.dumps(record) for record in out]


def main(argv: list) -> int:
    lines = records()
    text = "".join(line + "\n" for line in lines)
    print(len(lines), hashlib.sha256(text.encode()).hexdigest())
    if argv:
        Path(argv[0]).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
