"""The package's one CSV dialect (UTF-8, ``\\n`` line ends), over a path or a stream.

`read_text` is the only code that reads an input, each once and whole.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from typing import IO, Any, Iterator, Sequence

from .errors import DataFormatError

Target = str | os.PathLike | IO[str]

_LINES = 1 << 16  # characters of a `SourceText` turned into lines at a time


class SourceText:
    """A source read whole by `read_text`: its name and its text, both read-only.

    It iterates over its lines as a file opened with ``newline=""`` gives
    them, so `csv_reader` reads it like that file, under the same name.
    """

    __slots__ = ("_name", "_text")

    def __init__(self, name: str, text: str) -> None:
        self._name = name
        self._text = text

    @property
    def name(self) -> str:
        return self._name

    @property
    def text(self) -> str:
        return self._text

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

    A path is opened once, in binary, and its bytes are decoded as UTF-8
    with no newline translation, as ``newline=""`` reads them. A stream
    is read whole and left open for its owner. One leading byte order
    mark (U+FEFF, as Excel's "CSV UTF-8" writes) is dropped from either.
    A byte that is not UTF-8 raises DataFormatError naming the source,
    and for a path its line.
    """
    if not isinstance(source, (str, os.PathLike)):
        name = str(getattr(source, "name", "<stream>"))
        try:
            return SourceText(name, source.read().removeprefix("\ufeff"))
        except UnicodeDecodeError as exc:
            raise DataFormatError(_not_utf8(name, exc)) from None
    name = str(os.fspath(source))
    with open(source, "rb") as fh:
        raw = fh.read()
    try:
        return SourceText(name, raw.decode("utf-8").removeprefix("\ufeff"))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(_not_utf8(f"{name}: line {line}", exc)) from None


def _not_utf8(where: str, exc: UnicodeDecodeError) -> str:
    return f"{where}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x})"


@contextmanager
def csv_reader(source: Target | SourceText) -> Iterator[tuple[str, Any, list[str]]]:
    """Yield the source's name, a csv reader past the header, and the header.

    A source other than a `SourceText` is read by `read_text` first.
    This is the only code that says where a fault is. A ValueError or
    csv module error (say, an over-long field) raised inside the block
    is a fault of the header or of the row just read, and becomes
    DataFormatError ``"<source>: line N: <reason>"``, N being the line
    where that record ends. So a check of the whole file, which names no
    line, runs after the block. An empty source raises DataFormatError
    naming it.
    """
    if not isinstance(source, SourceText):
        source = read_text(source)
    reader = csv.reader(source)
    try:
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{source.name}: empty file")
        yield source.name, reader, header
    except (csv.Error, ValueError) as exc:
        raise DataFormatError(f"{source.name}: line {reader.line_num}: {exc}") from None


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
