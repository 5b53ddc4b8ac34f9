"""The byte-identity dump (`dump_outputs.py`) covers its whole battery, masks every timing, records
only passing suite and verify runs, and hashes to its pinned sha256: a change of any output on the
battery fails here until the pin is updated with the reason for it."""

import hashlib
import json
import re

import dump_outputs

DUMP_SHA256 = "adfd93e7aaa1bcd20447f4c199d238f6b64f50e295a9cf73272f0d198fdeacca"


def test_dump_covers_the_battery_with_every_timing_masked():
    lines = dump_outputs.records()
    assert len(lines) == 1366
    assert not any(re.search(r'millis\W*\d', line) for line in lines)
    runs = [output for kind, _, output in map(json.loads, lines) if kind in ("suite", "verify")]
    assert len(runs) == 12 and all(code == 0 and "millis" in out for code, out in runs)
    assert hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest() == DUMP_SHA256
