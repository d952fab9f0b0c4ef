"""Accept either a file path or an already open text stream."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def text_stream(target: str | os.PathLike | IO[str], mode: str = "r") -> Iterator[IO[str]]:
    """Yield `target` itself when it is a stream, else open it as UTF-8 text.

    A path is opened with ``newline=""``, as the csv module expects, and
    closed on exit; a stream passed in is left open for its owner.
    """
    if not isinstance(target, (str, os.PathLike)):
        yield target
        return
    with open(target, mode, encoding="utf-8", newline="") as fh:
        yield fh
