"""Append-only JSON-lines files that survive a torn final line.

A run killed while writing can leave its last line half written, with no
trailing newline. Readers skip such a line with a warning, and writers cut
the file back to its last complete line before they append. An unreadable
line anywhere else is corruption and still fails the read.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Iterator

from .errors import LinkerError

log = logging.getLogger(__name__)


def read_jsonl(path: Path, error: type[LinkerError], what: str) -> Iterator[dict]:
    """Yield the record on each line of path; a bad line raises ``error``.

    Records are yielded one at a time, so a caller that keeps only part of
    each never holds every parsed line at once. A missing file reads as
    empty. An unparseable last line without a trailing newline is a torn
    write and is skipped with a warning; ``what`` names a line in errors.
    """
    if not path.exists():
        return
    text = path.read_text(encoding="utf-8")
    ends_complete = text.endswith("\n")
    lines = text.splitlines()
    del text  # a transcript cache runs to megabytes; do not hold it twice
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if line_no == len(lines) and not ends_complete:
                log.warning("%s:%d: skipping torn final line: %s", path, line_no, exc.msg)
                break
            raise error(f"{path}:{line_no}: unreadable {what}: {exc.msg}") from exc
        yield record


def repair_tail(path: Path) -> None:
    """Make path end on a complete line before anything is appended to it.

    A torn final line is cut off; a complete one that lacks its newline
    gets one. A file that ends in a newline is left untouched.
    """
    try:
        handle = path.open("r+b")
    except FileNotFoundError:
        return
    with handle:
        end = handle.seek(0, 2)
        if end == 0:
            return
        handle.seek(end - 1)
        if handle.read(1) == b"\n":
            return
        handle.seek(0)
        data = handle.read()
        start = data.rfind(b"\n") + 1
        try:
            json.loads(data[start:])
        except ValueError:
            log.warning("%s: cutting torn final line (%d bytes)", path, end - start)
            handle.truncate(start)
        else:
            handle.write(b"\n")
