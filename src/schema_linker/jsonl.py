"""Append-only JSON-lines files that survive a torn final line.

A run killed while writing can leave its last line half written, with no
trailing newline. Readers hold one line at a time and skip such a line with
a warning. Writers read back from the end only to the last newline, and cut
the file back to it before they append. An unreadable line anywhere else is
corruption and still fails the read.
``JsonlAppender`` is the one writer of a line: the harness writes run
outputs through it, and the transcript cache its records.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from .errors import LinkerError

log = logging.getLogger(__name__)


def read_jsonl(
    path: Path, error: type[LinkerError], what: str, keys: Sequence[str] = ()
) -> Iterator[dict]:
    """Yield the record on each line of path; a bad line raises ``error``.

    The file is read one line at a time, so a caller that keeps only part
    of each record never holds the whole file. Lines break at newlines and
    carriage returns only, never at a Unicode line separator that a JSON
    string may hold raw. A missing file reads as empty. An unparseable last
    line without a trailing newline is a torn write and is skipped with a
    warning. Any other line must hold a JSON object with every key in
    ``keys``. ``what`` names a line in errors.
    """
    try:
        lines = path.open(encoding="utf-8")
    except FileNotFoundError:
        return
    with lines:  # also closed when a caller drops the generator early
        for line_no, line in enumerate(lines, start=1):
            if line.isspace():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if not line.endswith("\n"):  # only the last line can lack one
                    log.warning("%s:%d: skipping torn final line: %s", path, line_no, exc.msg)
                    return
                raise error(f"{path}:{line_no}: unreadable {what}: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise error(f"{path}:{line_no}: {what} is not a JSON object")
            missing = [key for key in keys if key not in record]
            if missing:
                raise error(f"{path}:{line_no}: {what} lacks {', '.join(map(repr, missing))}")
            yield record


TAIL_BLOCK = 1 << 16  # bytes read at a time while looking back for the last newline


def _last_line_start(sink: BinaryIO, end: int) -> int:
    """The offset just after the last newline before ``end``, or 0 if there is none."""
    block_end = end
    while block_end:
        block_start = max(block_end - TAIL_BLOCK, 0)
        sink.seek(block_start)
        newline = sink.read(block_end - block_start).rfind(b"\n")
        if newline >= 0:
            return block_start + newline + 1
        block_end = block_start
    return 0


class JsonlAppender:
    """Appends one JSON record per line to path; close it, or use ``with``.

    Opening makes the parent directory and, before anything is appended,
    cuts a torn final line off the file, or ends a complete one that lacks
    its newline. The file is unbuffered, so each line reaches the OS as it
    is written, and a write that fails part-way is cut back off.
    """

    def __init__(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        # Every write appends; the tail can still be cut.
        self._sink = sink = path.open("a+b", buffering=0)
        end = sink.seek(0, 2)
        sink.seek(max(end - 1, 0))
        if end and sink.read(1) != b"\n":
            start = _last_line_start(sink, end)
            sink.seek(start)
            try:
                json.loads(sink.read())
            except ValueError:
                log.warning("%s: cutting torn final line (%d bytes)", path, end - start)
                sink.truncate(start)
            else:
                sink.write(b"\n")

    def write(self, record: dict) -> None:
        """Append record as one line; an ``OSError`` part-way leaves the file as it was."""
        line = (json.dumps(record, ensure_ascii=True, sort_keys=True) + "\n").encode("ascii")
        start = self._sink.seek(0, 2)
        try:
            while line:  # a raw write may take only part of the line
                line = line[self._sink.write(line) :]
        except OSError:  # a full disk, say: no later line may land after half of this one
            self._sink.truncate(start)
            raise

    def close(self) -> None:
        self._sink.close()

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
