"""Replayed outputs stay byte-identical to the checked-in golden manifest.

A change that means to move output bytes runs ``python
tests/golden/regenerate.py`` and names the moved entries in CHANGES.md.
"""

import json

from golden_outputs import MANIFEST, compute_manifest, moved_entries


def test_replayed_outputs_match_the_golden_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    moved = moved_entries(expected, compute_manifest(tmp_path))
    assert moved == [], "rerun python tests/golden/regenerate.py if these moves are intended"
