"""The package's one CSV dialect (UTF-8, ``\\n`` line ends), over a path or a stream.

`read_text` alone reads an input, each once and whole; `pieces` alone cuts a
text into pieces; `csv_reader` alone filters rows and names a faulty line;
`names` alone refuses a blank, padded or repeated name, and `first_cells` a
first-cell name that opens with ``#``; `staged` alone creates, renames or
deletes an output temporary.
"""

from __future__ import annotations

import csv
import errno
import io
import os
from contextlib import contextmanager, nullcontext, suppress
from typing import IO, Any, Iterator, NamedTuple, Sequence

from .errors import DataFormatError

Target = str | os.PathLike | IO[str]
Rows = Iterator[tuple[int, list[str]]]  # a source's data rows as (line, fields)

_PIECE = 1 << 18  # characters a piece of `pieces` holds at least, 256 KiB of ASCII


class SourceText(NamedTuple):
    """A source read whole by `read_text`: its name and its text."""

    name: str
    text: str


def pieces(text: str, start: int = 0) -> Iterator[str]:
    """`text` from `start` on in pieces of whole lines, each ending at the first
    ``\\n`` at least `_PIECE` characters past its start, or at the text's end."""
    while start < len(text):
        end = text.find("\n", start + _PIECE) + 1 or len(text)
        yield text[start:end]
        start = end


def lines(text: str) -> Iterator[str]:
    """The lines of `text` as a file opened with ``newline=""`` gives them, split a
    piece of about 256 KiB at a time, so `csv_reader` reads a `SourceText` like that file."""
    # a line ends right after a "\n", "\r\n" too, so a piece splits into whole lines
    for piece in pieces(text):
        yield from io.StringIO(piece, newline="")


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
        if not any(map(str.strip, row)) or row[0].startswith("#"):
            continue
        if len(row) != width:
            raise ValueError(f"expected {width} fields, got {len(row)}")
        yield reader.line_num, row


def names(given: list[str], what: str) -> list[str]:
    """`given`, when each name is one that a CSV cell writes and reads back
    unchanged: non-empty, its own `strip()` and not repeated. Any other name
    raises ValueError naming `what` and that name."""
    seen: set[str] = set()
    for name in given:
        if not name.strip():
            raise ValueError(f"{what} must be non-empty")
        if name != name.strip():
            raise ValueError(f"{what} {name!r} has surrounding whitespace")
        if name in seen:
            raise ValueError(f"duplicate {what} {name!r}")
        seen.add(name)
    return given


def first_cells(given: list[str], what: str) -> list[str]:
    """`names(given, what)`, when no name strips to one a first cell reads as a comment."""
    for name in given:
        if name.strip().startswith("#"):
            raise ValueError(f"{what} {name!r} reads as a CSV comment")
    return names(given, what)


@contextmanager
def staged(*dests: str | os.PathLike) -> Iterator[list[IO[str]]]:
    """Yield a new UTF-8 stream (``newline=""``) on a temporary beside each
    dest; on a clean exit, close them all and rename each into place, in order.

    The only code that creates, renames or deletes an output temporary. A
    directory in a dest's place raises IsADirectoryError before anything is
    opened, and an OSError opening a temporary names its dest. Each
    ``.<name>.<pid>.<random>.tmp`` is opened with ``"x"``, so no two writers
    share one and a file a killed run left is never in the way; unlike
    tempfile's 0600 files, it gets the umask's permissions. Every file is
    written before the first rename, and any exception deletes each
    temporary not yet renamed: a failure before the renames changes no
    file, and a rename that fails partway leaves those before it in place.
    """
    for dest in dests:
        if os.path.isdir(dest) and not os.path.islink(dest):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(dest))
    temps: list[str] = []
    streams: list[IO[str]] = []
    try:
        for dest in dests:
            head, name = os.path.split(dest)
            temp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
            try:
                streams.append(open(temp, "x", encoding="utf-8", newline=""))
            except OSError as exc:
                raise type(exc)(exc.errno, exc.strerror, os.fspath(dest)) from None
            temps.append(temp)
        yield streams
        for fh in streams:
            fh.close()
        for temp, dest in zip(temps, dests):
            os.replace(temp, dest)
    except BaseException:
        for fh, temp in zip(streams, temps):
            with suppress(OSError):  # a failed flush: the file goes anyway
                fh.close()
            with suppress(FileNotFoundError):  # already renamed into place
                os.unlink(temp)
        raise


@contextmanager
def csv_writer(dest: Target, header: Sequence[str]) -> Iterator[tuple[IO[str], Any]]:
    """Write `header` with ``\\n`` line ends; yield the open stream and a csv writer.

    A path is written whole or not at all, through `staged`; a stream is
    written in place and left open for its owner.
    """
    staging = staged(dest) if isinstance(dest, (str, os.PathLike)) else nullcontext([dest])
    with staging as [fh]:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield fh, writer
