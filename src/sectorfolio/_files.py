"""The package's one CSV dialect (UTF-8, ``\\n`` line ends), over a path or a stream.

`read_text` is the only code that reads an input, each once and whole,
and `csv_reader` the only code that filters rows and names a faulty line.
"""

from __future__ import annotations

import csv
import errno
import io
import os
from contextlib import contextmanager
from typing import IO, Any, Iterator, NamedTuple, Sequence

from .errors import DataFormatError

Target = str | os.PathLike | IO[str]
Rows = Iterator[tuple[int, list[str]]]  # a source's data rows as (line, fields)

_LINES = 1 << 16  # characters of a `SourceText` turned into lines at a time


class SourceText(NamedTuple):
    """A source read whole by `read_text`: its name and its text."""

    name: str
    text: str


def lines(text: str) -> Iterator[str]:
    """The lines of `text` as a file opened with ``newline=""`` gives them,
    so `csv_reader` reads a `SourceText` like that file."""
    # a line always ends right after a "\n", "\r\n" included, so each
    # piece cut there splits into the file's own lines; a piece at a time
    # keeps the copy that does the splitting small
    start = 0
    while start < len(text):
        end = text.find("\n", start + _LINES) + 1 or len(text)
        yield from io.StringIO(text[start:end], newline="")
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
    if isinstance(source, (str, os.PathLike)):
        name = str(os.fspath(source))
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        name, raw = str(getattr(source, "name", "<stream>")), None
    try:
        text = source.read() if raw is None else raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 0 if raw is None else raw.count(b"\n", 0, exc.start) + 1
        where = f"{name}: line {line}" if line else name
        raise DataFormatError(f"{where}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x})") from None
    return SourceText(name, text.removeprefix("\ufeff"))


@contextmanager
def csv_reader(source: Target | SourceText) -> Iterator[tuple[str, Rows, list[str]]]:
    """Yield the source's name, its data rows, and its header.

    A source other than a `SourceText` is read by `read_text` first.
    This is the only code that filters rows and says where a fault is.
    The rows are ``(line, fields)`` pairs, `line` being where that record
    ends. A row of blank cells and a comment (first cell starting with
    ``#``, such as the summary's win-count footer) are left out; any
    other row not as wide as the header raises ValueError. A ValueError
    or csv module error (say, an over-long field) raised inside the block
    is a fault of the header or of the row just read, and becomes
    DataFormatError ``"<source>: line N: <reason>"``. So a check of the
    whole file, which names no line, runs after the block. An empty
    source raises DataFormatError naming it.
    """
    if not isinstance(source, SourceText):
        source = read_text(source)
    reader = csv.reader(lines(source.text))
    try:
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{source.name}: empty file")
        yield source.name, _data_rows(reader, len(header)), header
    except (csv.Error, ValueError) as exc:
        raise DataFormatError(f"{source.name}: line {reader.line_num}: {exc}") from None


def _data_rows(reader: Any, width: int) -> Rows:
    for row in reader:
        # most rows pass this cheaper test; any other gets the rule in full
        if not (len(row) == width and row[0].strip() and row[0][0] != "#"):
            if not any(map(str.strip, row)) or row[0].startswith("#"):
                continue
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
        yield reader.line_num, row


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


def beside(dest: str | os.PathLike, suffix: str) -> str:
    """This process's ``.<name>.<pid>.<suffix>`` beside `dest`, which no directory may be."""
    if os.path.isdir(dest) and not os.path.islink(dest):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(dest))
    return os.path.join(os.path.dirname(dest), f".{os.path.basename(dest)}.{os.getpid()}.{suffix}")


@contextmanager
def csv_writer(dest: Target, header: Sequence[str]) -> Iterator[tuple[IO[str], Any]]:
    """Write `header` with ``\\n`` line ends; yield the open stream and a csv writer.

    A path is written whole or not at all: rows go to a temporary file
    `beside` it, which replaces `dest` only when the block exits cleanly
    and is deleted otherwise, leaving any earlier file as it was. An
    OSError opening the temporary (say, a missing directory) names `dest`,
    except a FileExistsError, which names the temporary in the way.
    """
    if not isinstance(dest, (str, os.PathLike)):
        yield _with_header(dest, header)
        return
    tmp = beside(dest, "tmp")
    # "x" rather than tempfile, whose files are private (0600): the
    # output keeps the permissions the umask gives a new file
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except FileExistsError:
        raise
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, os.fspath(dest)) from None
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
