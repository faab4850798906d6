"""Rewrite tests/golden.json's entry for this environment from one run of the golden chain.

Usage, from the checkout root:

    python devtools/regen_golden.py

It runs the chain of tests/golden_chain.py in a temporary directory,
stores the digests under this environment's key (numpy version and
OpenBLAS kernel set), leaves the other entries as they are, and prints
the files whose digest changed. A change that alters what geckit writes
regenerates the table in the same commit and says which files changed
and why.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from golden_chain import TABLE, digests, environment, run_chain  # noqa: E402


def main() -> int:
    key = environment()
    with tempfile.TemporaryDirectory(prefix="geckit-golden-") as tmp:
        run_chain(Path(tmp))
        files = digests(Path(tmp))
    table = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    before = table.get(key, {})
    table[key] = files
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    changed = sorted(path for path in files.keys() | before.keys() if files.get(path) != before.get(path))
    print(f"{key}: {len(files)} files, {len(changed)} changed")
    for path in changed:
        print(f"  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
