"""Price history loading, alignment, and the missing-data policy.

Two CSV layouts are accepted, sniffed from the header row:

* long: ``date,ticker,close`` with one row per observation, e.g.
  ``2022-01-03,MARUTI,7524``.
* wide: ``date,<TICKER>,<TICKER>,...`` with one row per date and one
  column per ticker. An empty cell means the ticker did not trade that
  day; in the long layout a missing observation is simply an absent row.

Dates are ``YYYY-MM-DD``, no other spelling. Closes must parse as
finite positive numbers. Any malformed row raises DataFormatError
naming the line. A repeat is malformed too: the long layout rejects a
second row for one (date, ticker), the wide layout a second row for
one date or a second column for one ticker, and the error names the
line of the repeat.

Universe definitions live in small INI files::

    [universe]
    sector = Auto
    tickers = M&M MARUTI TATAMOTORS EICHERMOT
    train = 2017-01-01:2021-12-31
    test = 2022-01-01:2022-12-31
    ; optional, resolved relative to the config file:
    prices = auto.csv

Tickers are separated by whitespace or commas. Windows are inclusive
``start:end`` date ranges, and the training window must end before the
test window begins.

`parse_price_file` reads a whole file at once into a full-span panel:
every ticker in the file over every date, NaN marking the gaps. The
file is read and decoded once, and the csv module reads its header once.
A long file is then parsed with array operations, about 256 KiB of
lines at a time: each chunk is split into cells once, its closes
converted by `float` and its tickers and date cells coded through
dicts; the chunks' arrays are joined once, and one scatter fills the
matrix. Anything that path does not take as it stands (a quote, a
blank or comment line, a bad cell, a repeat) leaves the text to the
row-by-row loop, which reads on past the header and names the faulty
line. One scan of the whole text finds a quote, a NUL or a stray
``\r``; a blank line is caught by its chunk's count of commas, and a
comment line by its date cell.
A wide file always goes through its loop. `PricePanel.window` is the
one way to cut a panel: some tickers, in the order given, over an
optional date window, keeping only the dates on which one of them
trades. The CLI parses each price file once per invocation and cuts
every window from that one panel with `load_price_panel`. A panel holds
its closes, and `CovarianceMatrix` its entries, in C order, so equal
values give equal bits however a panel was built or cut.

`apply_missing_data_policy` drops tickers whose missing fraction over
the panel's dates exceeds the threshold and cuts the panel to the rest
(a date on which only an excluded ticker traded goes too), then fills
the remaining gaps: forward from the last traded price, and backward
only at the head of a series (a late listing has no earlier price to
carry). A book's test panel, cut to the book's tickers, opens on the
first test date on which one of them trades and is never back-filled:
`fill_gaps` with an ``opening`` price fills a book ticker's leading
test gap with its last close on or before the test start
(`PricePanel.last_closes` on the full-span panel), so a backtest never
buys at a quote from after its buy date. A book ticker with no quote in
the test window is not filled at all: it raises InsufficientDataError.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import re
from array import array
from bisect import bisect_left, bisect_right
from datetime import date
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from ._files import Rows, csv_reader, csv_writer, first_cells, names, pieces, read_text
from .errors import (
    DataFormatError,
    EmptyPanelError,
    EmptyUniverseError,
    InsufficientDataError,
    MissingTickerError,
)

__all__ = [
    "PriceSeries",
    "PricePanel",
    "UniverseConfig",
    "read_universe_config",
    "parse_price_file",
    "parse_iso_date",
    "parse_window",
    "load_price_panel",
    "fill_gaps",
    "apply_missing_data_policy",
    "write_long_csv",
]

_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


def _increasing(dates: list[date], what: str) -> None:
    for a, b in zip(dates, dates[1:]):
        if a >= b:
            raise ValueError(f"{what} not strictly increasing at {b}")


def parse_iso_date(text: str) -> date:
    """A ``YYYY-MM-DD`` date; any other spelling raises ValueError.

    `date.fromisoformat` alone also accepts ``20220107`` and
    ``2022-W01-1`` from Python 3.11 on, but not on 3.10.
    """
    if _DATE_RE.fullmatch(text) is None:
        raise ValueError(f"expected a YYYY-MM-DD date, got {text!r}")
    return date.fromisoformat(text)


class PriceSeries:
    """Closing prices for one ticker on strictly increasing dates."""

    def __init__(self, ticker: str, dates: list[date], closes: np.ndarray) -> None:
        names([ticker], "ticker")
        self.ticker = ticker
        self.dates = dates
        self.closes = np.asarray(closes, dtype=float)
        if self.closes.ndim != 1 or len(self.dates) != self.closes.size:
            raise ValueError(
                f"{self.ticker}: {len(self.dates)} dates vs {self.closes.size} closes"
            )
        if self.closes.size == 0:
            raise ValueError(f"{self.ticker}: empty price series")
        _increasing(self.dates, f"{self.ticker}: dates")
        if not np.all(np.isfinite(self.closes)) or np.any(self.closes <= 0.0):
            raise ValueError(f"{self.ticker}: closes must be finite and positive")

    def __len__(self) -> int:
        return self.closes.size


class PricePanel:
    """Aligned close-price matrix, one row per ticker, one column per date.

    ``closes[i, j]`` is the close of ``tickers[i]`` on ``dates[j]``, or
    NaN if that ticker has no observation on that date. Observed cells
    are always finite and positive; `closes` is held in C order.
    """

    def __init__(self, tickers: list[str], dates: list[date], closes: np.ndarray) -> None:
        if not tickers:
            raise EmptyPanelError("panel has no tickers")
        self.tickers = names(tickers, "ticker")
        if not dates:
            raise EmptyPanelError("panel has no dates")
        _increasing(dates, "panel dates")
        self.dates = dates
        self.closes = np.ascontiguousarray(closes, dtype=float)
        if self.closes.shape != (len(self.tickers), len(self.dates)):
            raise ValueError(
                f"closes shape {self.closes.shape} does not match "
                f"{len(self.tickers)} tickers x {len(self.dates)} dates"
            )
        observed = self.closes[~np.isnan(self.closes)]
        if not np.all(np.isfinite(observed)) or np.any(observed <= 0.0):
            raise ValueError("observed closes must be finite and positive")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def is_complete(self) -> bool:
        """True when every (ticker, date) cell holds a price."""
        return not np.any(np.isnan(self.closes))

    def missing_fraction(self, ticker: str) -> float:
        """Fraction of this panel's dates on which `ticker` has no observation."""
        row = self.closes[self._rows([ticker])[0]]
        return float(np.isnan(row).sum()) / self.n_dates

    def series(self, ticker: str) -> PriceSeries:
        """Observed prices for one ticker, gaps dropped."""
        row = self.closes[self._rows([ticker])[0]]
        mask = ~np.isnan(row)
        if not mask.any():
            raise InsufficientDataError(f"{ticker}: no observations in panel")
        dates = [d for d, keep in zip(self.dates, mask) if keep]
        return PriceSeries(ticker, dates, row[mask])

    def window(
        self,
        tickers: Iterable[str],
        start: date | None = None,
        end: date | None = None,
    ) -> "PricePanel":
        """Sub-panel of `tickers`, in the given order, over one date window.

        The one way to cut a panel. The window is inclusive; None leaves
        that end open. Its dates are the window's dates on which at least
        one of `tickers` has a quote, so fewer tickers can mean fewer dates.

        Raises
        ------
        MissingTickerError : some ticker is not in this panel.
        EmptyPanelError : `tickers` is empty or has no quote in the window.
        """
        wanted = list(tickers)
        rows = self._rows(wanted)
        lo = 0 if start is None else bisect_left(self.dates, start)
        hi = len(self.dates) if end is None else bisect_right(self.dates, end)
        block = self.closes[rows, lo:hi]
        quoted = np.flatnonzero(~np.isnan(block).all(axis=0))
        if quoted.size == 0:
            where = "" if start is None and end is None else f" in {start}:{end}"
            raise EmptyPanelError(f"no observations for any configured ticker{where}")
        return PricePanel(wanted, [self.dates[lo + j] for j in quoted], block.take(quoted, 1))

    def last_closes(self, tickers: Iterable[str], on_or_before: date) -> np.ndarray:
        """Each ticker's last close on or before a date; NaN where it has none."""
        hi = bisect_right(self.dates, on_or_before)
        rows = self._rows(tickers)
        return _carried(self.closes[rows, :hi])[:, -1] if hi else np.full(len(rows), np.nan)

    def _rows(self, tickers: Iterable[str]) -> list[int]:
        """The row of each ticker, in order; MissingTickerError names every absent one."""
        index = {t: i for i, t in enumerate(self.tickers)}
        wanted = list(tickers)
        rows = [index.get(t) for t in wanted]
        if None in rows:
            raise MissingTickerError([t for t, i in zip(wanted, rows) if i is None])
        return rows


class UniverseConfig:
    """One sector universe: tickers plus training and test windows; equal to
    another when every field is."""

    def __init__(
        self,
        sector: str,
        tickers: list[str],
        train_window: tuple[date, date],
        test_window: tuple[date, date],
        prices: str | None = None,
    ) -> None:
        first_cells([sector], "sector name")
        if not tickers:
            raise EmptyUniverseError(f"{sector}: no tickers configured")
        first_cells(tickers, f"{sector}: ticker")
        _check_windows(train_window, test_window, f"{sector}: ")
        self.sector = sector
        self.tickers = tickers
        self.train_window = train_window
        self.test_window = test_window
        self.prices = prices

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)


def _check_windows(train: tuple[date, date] | None, test: tuple[date, date] | None, where: str = "") -> None:
    """Each window given runs forward, and training ends before the test begins."""
    for name, window in (("train", train), ("test", test)):
        if window and window[0] > window[1]:
            raise ValueError(f"{where}{name} window starts after it ends")
    if train and test and train[1] >= test[0]:
        raise ValueError(f"{where}training window must end before the test window begins")


def parse_window(text: str) -> tuple[date, date]:
    """A ``START:END`` pair of ``YYYY-MM-DD`` dates; anything else raises ValueError.

    The pair's order is checked by `_check_windows`, not here.
    """
    start, colon, end = text.strip().partition(":")
    if not colon:
        raise ValueError(f"expected START:END dates, got {text!r}")
    return parse_iso_date(start), parse_iso_date(end)


def read_universe_config(path: str | Path) -> UniverseConfig:
    """Parse a universe INI file into a UniverseConfig.

    Raises DataFormatError on a missing section or key, an unparseable
    window, or a byte that is not UTF-8.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    whole = read_text(path)
    try:
        # newline=None reads "\r\n" and "\r" as "\n", as a file opened in text mode does
        parser.read_file(io.StringIO(whole.text, newline=None), whole.name)
        if not parser.has_section("universe"):
            raise DataFormatError(f"{path}: missing [universe] section")
        # read here, so a bad "%" interpolation is caught like a parse error
        sec = dict(parser["universe"])
    except configparser.Error as exc:
        # its message may span lines; joined, it keeps the file and any line
        raise DataFormatError(f"{path}: {' '.join(str(exc).split())}") from None
    for key in ("sector", "tickers", "train", "test"):
        if key not in sec:
            raise DataFormatError(f"{path}: missing '{key}' in [universe]")
    tickers = [t for t in re.split(r"[,\s]+", sec["tickers"].strip()) if t]
    windows = []
    for key in ("train", "test"):
        try:
            windows.append(parse_window(sec[key]))
        except ValueError as exc:
            raise DataFormatError(f"{path} [universe] {key}: {exc}") from None
    try:
        return UniverseConfig(
            sec["sector"].strip(), tickers, *windows, prices=sec.get("prices", "").strip() or None
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _parse_date(text: str) -> date:
    try:
        return parse_iso_date(text.strip())
    except ValueError:
        raise ValueError(f"bad date {text!r}") from None


def _parse_close(text: str, ticker: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"bad close {text!r} for {ticker}") from None
    if not 0.0 < value < math.inf:
        raise ValueError(f"close for {ticker} must be finite and positive, got {text!r}")
    return value


# a parsed file: its tickers, its dates ascending, and closes[ticker, date]
_Parsed = tuple[list[str], list[date], np.ndarray]


def _parse_long(rows: Rows) -> _Parsed:
    quotes: dict[str, dict[date, float]] = {}  # ticker -> {date: close}, in file order
    day_cells: dict[str, date] = {}  # date cell text -> date
    for _, row in rows:
        day = day_cells.get(row[0])
        if day is None:
            day = day_cells[row[0]] = _parse_date(row[0])
        ticker = row[1].strip()
        if not ticker:
            raise ValueError("empty ticker")
        close = _parse_close(row[2], ticker)
        series = quotes.setdefault(ticker, {})
        if day in series:
            raise ValueError(f"duplicate observation for {ticker} on {day}")
        series[day] = close
    return _quote_matrix(quotes)


def _quote_matrix(quotes: dict[str, dict[date, float]]) -> _Parsed:
    """ticker -> {date: close} over the union of their dates, NaN in the gaps."""
    dates = sorted(set().union(*quotes.values()))
    column = {d: j for j, d in enumerate(dates)}
    closes = np.full((len(quotes), len(dates)), np.nan)
    for i, series in enumerate(quotes.values()):
        closes[i, [column[d] for d in series]] = list(series.values())
    return list(quotes), dates, closes


_LONG_HEADER = ["date", "ticker", "close"]


def _parse_long_arrays(text: str) -> _Parsed | None:
    """A long-layout text parsed with array operations, a chunk of lines at a time.

    The caller has checked the header, the text's first line. ``\\r\\n``
    ends read as ``\\n``, as the csv module reads them. Any line the array
    path does not take as it stands gives None, never an exception, so
    `_parse_long` parses the text and names the fault: a quote, NUL or
    other ``\\r``; a blank or comment line; a line without exactly two
    commas; an empty, padded or ``#`` ticker; a close that `float` rejects
    or that is not finite and positive; a bad date cell, or two that strip
    to one date; a repeated (ticker, date).
    """
    if "\r" in text and text.count("\r") == text.count("\r\n"):
        text = text.replace("\r\n", "\n")
    # a blank line fails its chunk's comma count, and a comment line its date cell
    if any(mark in text for mark in ('"', "\r", "\0")):
        return None
    limit = csv.field_size_limit()
    start = text.find("\n") + 1
    if not 0 < start < len(text):
        return None
    tickers: dict[str, int] = {}  # ticker -> code, in file order
    cells: dict[str, int] = {}  # date cell -> code, in file order
    # each line's ticker code, date-cell code and close, one array of each per chunk
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    close_parts: list[np.ndarray] = []
    for chunk in pieces(text, start):
        if not chunk.endswith("\n"):
            chunk += "\n"
        raw = np.frombuffer(chunk.encode("utf-8", "surrogatepass"), np.uint8)
        ends = np.flatnonzero(raw == ord("\n"))
        # line k (from 1) ends after exactly 2k commas; none is longer than a field may be
        commas = np.searchsorted(np.flatnonzero(raw == ord(",")), ends)
        if not np.array_equal(commas, np.arange(2, 2 * ends.size + 1, 2)):
            return None
        if np.diff(ends, prepend=-1).max() > limit:
            return None
        fields = chunk[:-1].replace("\n", ",").split(",")
        try:
            close_parts.append(np.fromiter(map(float, fields[2::3]), float, ends.size))
        except ValueError:
            return None
        for codes, column, out in (
            (tickers, fields[1::3], row_parts), (cells, fields[0::3], col_parts)
        ):
            for key in dict.fromkeys(column):
                codes.setdefault(key, len(codes))
            out.append(np.fromiter(map(codes.__getitem__, column), np.intp, ends.size))
        del fields, column  # freed before the next chunk's cells are made, not after
    rows, cols, closes = map(np.concatenate, (row_parts, col_parts, close_parts))
    if not np.all((closes > 0.0) & (closes < math.inf)):
        return None
    if any(not t or t != t.strip() or t.startswith("#") for t in tickers):
        return None
    try:
        days = [_parse_date(cell) for cell in cells]
    except ValueError:
        return None
    if len(set(days)) < len(days):
        return None
    order = sorted(range(len(days)), key=days.__getitem__)
    rank = np.empty(len(days), np.intp)  # the matrix column of each date cell
    rank[order] = np.arange(len(days))
    matrix = np.full((len(tickers), len(days)), np.nan)
    matrix[rows, rank[cols]] = closes
    if np.count_nonzero(~np.isnan(matrix)) < closes.size:  # a repeated (ticker, date)
        return None
    return list(tickers), [days[k] for k in order], matrix


def _parse_wide(rows: Rows, header: list[str]) -> _Parsed:
    tickers = names([h.strip() for h in header[1:]], "column")
    days: dict[date, int] = {}  # date -> row of `values`
    values = array("d")
    for _, row in rows:
        day = _parse_date(row[0])
        if day in days:
            raise ValueError(f"duplicate date {day}")
        days[day] = len(days)
        values.extend(
            _parse_close(cell, ticker) if cell.strip() else math.nan
            for ticker, cell in zip(tickers, row[1:])
        )
    dates = sorted(days)
    by_date = np.frombuffer(values).reshape(len(dates), len(tickers))
    return tickers, dates, by_date[[days[d] for d in dates]].T


def parse_price_file(source: str | Path | IO[str]) -> PricePanel:
    """Parse a long or wide price CSV into one full-span panel.

    The panel holds every ticker the file names, in file order, over
    every date in the file, ascending, with NaN where a ticker has no
    quote. A wide-layout column with no quote at all is an all-NaN row.
    The whole file is validated, including tickers no universe asks for;
    cut windows from the result with `PricePanel.window`.

    Raises
    ------
    DataFormatError : a row fails to parse (message names the line).
    EmptyPanelError : the file holds a header but no quote.
    """
    whole = read_text(source)
    with csv_reader(whole) as (_, rows, header):
        columns = [h.strip().lower() for h in header]
        if columns[:1] != ["date"]:
            raise ValueError(f"first column must be 'date', got {header!r}")
        if columns == _LONG_HEADER:
            parsed = _parse_long_arrays(whole.text) or _parse_long(rows)
        elif len(columns) < 2:
            raise ValueError(f"unrecognized header {header!r}")
        else:
            parsed = _parse_wide(rows, header)
    tickers, dates, closes = parsed
    if np.isnan(closes).all():
        raise EmptyPanelError(f"{whole.name}: no quotes")
    return PricePanel(tickers, dates, closes)


def load_price_panel(
    source: str | Path | IO[str] | PricePanel,
    universe: UniverseConfig,
    window: tuple[date, date] | None = None,
) -> PricePanel:
    """Load closing prices for a universe and cut one window from them.

    Parses a file source whole with `parse_price_file` and cuts one
    window from it (`PricePanel.window`). A caller that needs several
    windows of one file parses it once and passes that panel as
    `source` for each window; nothing is parsed then.

    Parameters
    ----------
    source : path or open text stream holding a long or wide price CSV,
        or a full-span panel from `parse_price_file`.
    universe : the sector universe whose tickers should be loaded.
    window : inclusive (start, end) date range, or None for all dates.

    Returns
    -------
    PricePanel over the in-window dates on which a universe ticker has a
    quote, in universe ticker order, NaN where a ticker has none.

    Raises
    ------
    DataFormatError : a row fails to parse (message names the line).
    MissingTickerError : a configured ticker never appears in the source.
    EmptyPanelError : the file holds no quote, or no configured ticker
        has any in-window observation.
    """
    if not isinstance(source, PricePanel):
        source = parse_price_file(source)
    start, end = window or (None, None)
    return source.window(universe.tickers, start, end)


def fill_gaps(panel: PricePanel, opening: np.ndarray | None = None) -> PricePanel:
    """Fill every gap from that ticker's own prices.

    Interior and trailing gaps carry the last traded price forward. A
    leading gap takes ``opening[i]``, the ticker's last close before the
    panel's first date, when `opening` is given; without it, the first
    traded price (a late listing has no earlier price to carry). No new
    price levels are invented. A ticker with no observation in the
    panel, or with a leading gap and no opening price for it, raises
    InsufficientDataError.
    """
    carried = _carried(panel.closes)
    quoted = ~np.isnan(panel.closes)
    if opening is None:
        head = panel.closes[np.arange(panel.n_assets), quoted.argmax(axis=1)]
    else:
        head = np.asarray(opening, dtype=float)
    bare = ~quoted.any(axis=1)
    failing = np.flatnonzero(bare | (~quoted[:, 0] & np.isnan(head)))
    if failing.size:
        i = failing[0]
        if bare[i]:
            raise InsufficientDataError(f"{panel.tickers[i]}: no observations to fill from")
        raise InsufficientDataError(
            f"{panel.tickers[i]}: no close before {panel.dates[0]} to fill its leading gap from"
        )
    closes = np.where(np.isnan(carried), head[:, None], carried)
    return PricePanel(list(panel.tickers), list(panel.dates), closes)


def _carried(closes: np.ndarray) -> np.ndarray:
    """Each row's gaps hold its last quote before them; a leading gap stays NaN."""
    # the column of each row's last quote at or before each column, -1 before the first
    last = np.maximum.accumulate(np.where(np.isnan(closes), -1, np.arange(closes.shape[1])), axis=1)
    return np.where(last < 0, np.nan, np.take_along_axis(closes, last, axis=1))


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be within [0, 1], got {threshold}")


def apply_missing_data_policy(
    panel: PricePanel, threshold: float = 0.30
) -> tuple[PricePanel, list[tuple[str, float]]]:
    """Drop sparsely observed tickers, then fill the survivors' gaps.

    A ticker is excluded when its missing fraction over the panel's
    dates is strictly greater than `threshold` (default 0.30). The
    returned panel is complete: every cell holds a finite positive
    price, on the dates on which a retained ticker has a quote.

    Returns
    -------
    (filled_panel, exclusions) where exclusions is a list of
    (ticker, missing_fraction) pairs in panel order.

    Raises
    ------
    ValueError : threshold outside [0, 1].
    EmptyUniverseError : every ticker was excluded.
    """
    _check_threshold(threshold)
    fractions = list(zip(panel.tickers, np.isnan(panel.closes).mean(axis=1).tolist()))
    excluded = [(t, f) for t, f in fractions if f > threshold]
    retained = [t for t, f in fractions if f <= threshold]
    if not retained:
        raise EmptyUniverseError(
            "all tickers exceed the missing-data threshold: "
            + ", ".join(f"{t} ({f:.0%})" for t, f in excluded)
        )
    return fill_gaps(panel.window(retained)), excluded


def write_long_csv(panel: PricePanel, dest: str | Path | IO[str]) -> None:
    """Write a panel as long rows (date,ticker,close), date by date; a gap writes no row."""
    with csv_writer(dest, ["date", "ticker", "close"]) as (_, writer):
        for d, column in zip(panel.dates, panel.closes.T):
            for t, c in zip(panel.tickers, column):
                if not np.isnan(c):
                    writer.writerow([d.isoformat(), t, format(float(c), ".12g")])
