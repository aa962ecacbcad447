"""Rewrite tests/golden/manifest.json from the current code and print what moved.

Run from anywhere: ``python tests/golden/regenerate.py``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from golden_outputs import MANIFEST, compute_manifest, moved_entries, write_manifest  # noqa: E402


def main() -> None:
    old = json.loads(MANIFEST.read_text(encoding="utf-8")) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        new = compute_manifest(Path(work))
    write_manifest(new)
    moved = moved_entries(old, new)
    for name in moved:
        change = "added" if name not in old else "removed" if name not in new else "moved"
        print(f"{change}: {name}")
    print(f"{len(moved)} of {len(new)} entries changed -> {MANIFEST}")


if __name__ == "__main__":
    main()
