"""Append-only JSON-lines files that survive a torn final line.

A run killed while writing can leave its last line half written, with no
trailing newline. Readers skip such a line with a warning, and writers cut
the file back to its last complete line before they append. An unreadable
line anywhere else is corruption and still fails the read. ``append_rows``
is the one writer of run outputs.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import LinkerError

log = logging.getLogger(__name__)

T = TypeVar("T")


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


def append_rows(
    path: Path,
    items: Sequence[T],
    work: Callable[[T], dict],
    on_error: Callable[[T, Exception], dict],
    error_field: str,
    workers: int = 1,
) -> int:
    """Append one row per item to path, in item order; return the failures.

    Each row is ``work(item)``, or ``on_error(item, exc)`` run on the same
    thread when work raises. A failure is a row whose ``error_field`` is
    set. One worker runs every item on the calling thread; more run them
    on that many threads. Each row is flushed as soon as it is written.
    """

    def row_for(item: T) -> dict:
        try:
            return work(item)
        except Exception as exc:  # recorded inline; the run continues
            return on_error(item, exc)

    repair_tail(path)
    failed = 0
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    with path.open("a", encoding="utf-8") as sink, pool:
        for row in pool.map(row_for, items) if workers > 1 else map(row_for, items):
            failed += row.get(error_field) is not None
            sink.write(json.dumps(row, ensure_ascii=True, sort_keys=True) + "\n")
            sink.flush()
    return failed
