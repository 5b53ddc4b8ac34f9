"""The byte-identity dump (`dump_outputs.py`) covers its whole battery, masks every timing and records
only passing suite and verify runs."""

import json
import re

import dump_outputs


def test_dump_covers_the_battery_with_every_timing_masked():
    lines = dump_outputs.records()
    assert len(lines) == 1366
    assert not any(re.search(r'millis\W*\d', line) for line in lines)
    runs = [output for kind, _, output in map(json.loads, lines) if kind in ("suite", "verify")]
    assert len(runs) == 12 and all(code == 0 and "millis" in out for code, out in runs)
