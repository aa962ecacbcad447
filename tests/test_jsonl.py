"""Reading and repairing JSON-lines files without holding them whole."""

import errno
import gc
import json
import re
import tracemalloc
import warnings

import pytest

from schema_linker.errors import ParseError
from schema_linker.jsonl import TAIL_BLOCK, JsonlAppender, read_jsonl

ROWS = 2_000
ROW_CHARS = 2_000  # about 4 MB in all, as a cache whose records hold whole schemas
PEAK_KIB = 256


def write_rows(path, rows=ROWS):
    with path.open("w", encoding="utf-8") as sink:
        for i in range(rows):
            sink.write(json.dumps({"question_id": str(i), "text": "x" * ROW_CHARS}) + "\n")


def read_rows(path):
    return read_jsonl(path, ParseError, "run output", ("question_id",))


def peak_kib(action) -> float:
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def test_reading_holds_one_line_at_a_time(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_rows(path)
    count = 0

    def read():
        nonlocal count
        for _ in read_rows(path):
            count += 1

    assert peak_kib(read) < PEAK_KIB
    assert count == ROWS


def test_a_reader_dropped_early_closes_its_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_rows(path, rows=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reader = read_rows(path)
        assert next(reader)["question_id"] == "0"
        del reader
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"question_id": ', "unreadable run output"),
        ("[1]", "run output is not a JSON object"),
        ("{}", "run output lacks 'question_id'"),
    ],
)
def test_a_bad_middle_line_is_named_by_its_number(tmp_path, line, message):
    path = tmp_path / "rows.jsonl"
    path.write_text(
        '{"question_id": "1"}\n\n  \n' + line + '\n{"question_id": "2"}\n', encoding="utf-8"
    )
    with pytest.raises(ParseError, match=f":4: {re.escape(message)}"):
        list(read_rows(path))


def test_repairing_a_torn_tail_reads_back_only_to_the_last_newline(tmp_path, caplog):
    path = tmp_path / "rows.jsonl"
    write_rows(path)
    size = path.stat().st_size
    with path.open("a", encoding="utf-8") as sink:
        sink.write('{"question_id": "torn", "te')
    assert peak_kib(lambda: JsonlAppender(path).close()) < PEAK_KIB
    assert "cutting torn final line" in caplog.text
    assert path.stat().st_size == size


@pytest.mark.parametrize("lines_before", [0, 2])
@pytest.mark.parametrize("tail_bytes", [TAIL_BLOCK - 1, TAIL_BLOCK, 3 * TAIL_BLOCK])
@pytest.mark.parametrize(
    "ending, kept",
    [("\n", "{tail}\n"), ("", "{tail}\n"), ("torn", "")],
    ids=["ended", "complete", "torn"],
)
def test_a_tail_across_blocks_is_kept_ended_or_cut(tmp_path, lines_before, tail_bytes, ending, kept):
    head = "".join(json.dumps({"question_id": str(i)}) + "\n" for i in range(lines_before))
    pad = tail_bytes - len(json.dumps({"question_id": "tail", "text": ""}))
    tail = json.dumps({"question_id": "tail", "text": "x" * pad})
    assert len(tail) == tail_bytes
    path = tmp_path / "rows.jsonl"
    path.write_text(head + (tail[:-2] if ending == "torn" else tail + ending), encoding="utf-8")
    JsonlAppender(path).close()
    assert path.read_text(encoding="utf-8") == head + kept.format(tail=tail)


class HalfWrites:
    """A file whose writes put half their bytes on disk and then fail, as a full disk does."""

    def __init__(self, sink):
        self.sink = sink

    def write(self, data):
        self.sink.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.sink, name)


class ShortWrites(HalfWrites):
    """A file whose writes take at most 5 bytes each, as a raw write may."""

    def write(self, data):
        return self.sink.write(data[:5])


def test_a_write_that_fails_part_way_is_cut_back_off(tmp_path):
    path = tmp_path / "rows.jsonl"
    with JsonlAppender(path) as appender:
        appender.write({"question_id": "1"})
        sink, appender._sink = appender._sink, HalfWrites(appender._sink)
        with pytest.raises(OSError):
            appender.write({"question_id": "lost", "text": "x" * ROW_CHARS})
        appender._sink = sink
        appender.write({"question_id": "2"})
    assert [row["question_id"] for row in read_rows(path)] == ["1", "2"]


def test_a_short_write_is_finished(tmp_path):
    path = tmp_path / "rows.jsonl"
    with JsonlAppender(path) as appender:
        appender._sink = ShortWrites(appender._sink)
        appender.write({"question_id": "1", "text": "x" * 20})
        appender.write({"question_id": "2"})
    assert [row["question_id"] for row in read_rows(path)] == ["1", "2"]
