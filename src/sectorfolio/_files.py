"""The package's one CSV dialect (UTF-8, ``\\n`` line ends), over a path or a stream."""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Any, Iterator, Sequence

from .errors import DataFormatError

Target = str | os.PathLike | IO[str]


@contextmanager
def text_stream(target: Target) -> Iterator[IO[str]]:
    """Yield `target` itself when it is a stream, else open it to read UTF-8 text.

    A path is opened with ``newline=""``, as the csv module expects, and
    closed on exit; a stream passed in is left open for its owner.
    """
    if not isinstance(target, (str, os.PathLike)):
        yield target
        return
    with open(target, encoding="utf-8", newline="") as fh:
        yield fh


_LINES = 1 << 16  # characters of a `SourceText` turned into lines at a time


@dataclass(frozen=True)
class SourceText:
    """A source read whole: its name and its text.

    It iterates over its lines as a file opened by `text_stream` gives
    them, so `csv_reader` reads it like that file, under the same name.
    """

    name: str
    text: str

    def __iter__(self) -> Iterator[str]:
        # a line always ends right after a "\n", "\r\n" included, so each
        # piece cut there splits into the file's own lines; a piece at a time
        # keeps the copy that does the splitting small
        start = 0
        while start < len(self.text):
            end = self.text.find("\n", start + _LINES) + 1 or len(self.text)
            yield from io.StringIO(self.text[start:end], newline="")
            start = end


def read_text(source: Target) -> SourceText:
    """The source's name and its whole text, read at once.

    Bytes that are not UTF-8 raise DataFormatError naming the source.
    """
    with text_stream(source) as fh:
        path = str(getattr(fh, "name", "<stream>"))
        try:
            return SourceText(path, fh.read())
        except UnicodeDecodeError as exc:  # a ValueError too, so caught first
            raise DataFormatError(_not_utf8(source, path, exc)) from None


@contextmanager
def csv_reader(source: Target | SourceText) -> Iterator[tuple[str, Any, list[str]]]:
    """Yield the source's name, a csv reader past the header, and the header.

    A `SourceText` is read from its text, under its name.

    This is the only code that says where a fault is. A ValueError or
    csv module error (say, an over-long field) raised inside the block
    is a fault of the header or of the row just read, and becomes
    DataFormatError ``"<source>: line N: <reason>"``, N being the line
    where that record ends. So a check of the whole file, which names no
    line, runs after the block. An empty source, or bytes that are not
    UTF-8, also raise DataFormatError naming the source.
    """
    with text_stream(source) as fh:
        path = str(getattr(fh, "name", "<stream>"))
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file")
            yield path, reader, header
        except UnicodeDecodeError as exc:  # a ValueError too, so caught first
            raise DataFormatError(_not_utf8(source, path, exc)) from None
        except (csv.Error, ValueError) as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def header_names(names: Sequence[str]) -> list[str]:
    """`names` stripped; a blank or repeated name raises ValueError."""
    stripped = [name.strip() for name in names]
    seen: set[str] = set()
    for name in stripped:
        if not name:
            raise ValueError("blank column name in header")
        if name in seen:
            raise ValueError(f"repeated column {name!r} in header")
        seen.add(name)
    return stripped


def skip_row(row: list[str], width: int) -> bool:
    """True for a row the dialect skips: all cells blank, or a comment (first
    cell starting with ``#``, such as the summary's win-count footer).

    Any other row without `width` fields raises ValueError.
    """
    if not any(cell.strip() for cell in row) or row[0].startswith("#"):
        return True
    if len(row) != width:
        raise ValueError(f"expected {width} fields, got {len(row)}")
    return False


def _not_utf8(source: Target, path: str, exc: UnicodeDecodeError) -> str:
    """Name the first byte that is not UTF-8, and its line when `source` is a path.

    The decoder works in chunks, so the reader's line count lags the
    fault; a path is read again as bytes to place it.
    """
    where, bad = "", exc.object[exc.start]
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            raw = fh.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as whole:
            line = raw.count(b"\n", 0, whole.start) + 1
            where, bad = f" line {line}:", raw[whole.start]
    return f"{path}:{where} not valid UTF-8 (byte 0x{bad:02x})"


@contextmanager
def csv_writer(dest: Target, header: Sequence[str]) -> Iterator[tuple[IO[str], Any]]:
    """Write `header` with ``\\n`` line ends; yield the open stream and a csv writer.

    A path is written whole or not at all: rows go to a temporary file
    beside it, which replaces `dest` only when the block exits cleanly
    and is deleted otherwise, leaving any earlier file as it was.
    """
    if not isinstance(dest, (str, os.PathLike)):
        yield _with_header(dest, header)
        return
    dest = os.fspath(dest)
    head, name = os.path.split(dest)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    # "x" rather than tempfile, whose files are private (0600): the
    # output keeps the permissions the umask gives a new file
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield _with_header(fh, header)
        os.replace(tmp, dest)
    except BaseException:
        os.unlink(tmp)
        raise


def _with_header(fh: IO[str], header: Sequence[str]) -> tuple[IO[str], Any]:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    return fh, writer
