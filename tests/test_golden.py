"""Tier-1 fails when a computed byte changes: the golden chain against tests/golden.json.

Criterion 9 compares two runs of the same tree, and the exact-kernel
tests compare two paths on one installation; this test compares every
file the chain writes (run.log aside) with digests recorded before the
change. An environment the table does not hold is skipped, and the
skip names its key and the script that adds it.
"""

import json

import pytest
from golden_chain import REGENERATE, TABLE, digests, environment, run_chain


def test_outputs_match_the_golden_table(tmp_path):
    key = environment()
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if key not in table:
        pytest.skip(f"tests/golden.json has no entry for {key!r}; add it with python {REGENERATE}")
    run_chain(tmp_path)
    expected, actual = table[key], digests(tmp_path)
    changed = sorted(path for path in expected.keys() | actual.keys() if expected.get(path) != actual.get(path))
    assert changed == [], f"outputs differ from tests/golden.json ({key}); if intended, run python {REGENERATE}"
