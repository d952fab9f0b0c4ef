"""The package's one CSV dialect (UTF-8, ``\\n`` line ends), over a path or a stream."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from typing import IO, Any, Iterator, Sequence

from .errors import DataFormatError

Target = str | os.PathLike | IO[str]


@contextmanager
def text_stream(target: Target, mode: str = "r") -> Iterator[IO[str]]:
    """Yield `target` itself when it is a stream, else open it as UTF-8 text.

    A path is opened with ``newline=""``, as the csv module expects, and
    closed on exit; a stream passed in is left open for its owner.
    """
    if not isinstance(target, (str, os.PathLike)):
        yield target
        return
    with open(target, mode, encoding="utf-8", newline="") as fh:
        yield fh


@contextmanager
def csv_reader(source: Target) -> Iterator[tuple[str, Any, list[str]]]:
    """Yield the source's name, a csv reader past the header, and the header.

    An empty source, or a csv module error inside the block (say, an
    over-long field), raises DataFormatError naming the source.
    """
    with text_stream(source) as fh:
        path = str(getattr(fh, "name", "<stream>"))
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file")
            yield path, reader, header
        except csv.Error as exc:
            raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None


@contextmanager
def csv_writer(dest: Target, header: Sequence[str]) -> Iterator[tuple[IO[str], Any]]:
    """Write `header` with ``\\n`` line ends; yield the open stream and a csv writer."""
    with text_stream(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield fh, writer
