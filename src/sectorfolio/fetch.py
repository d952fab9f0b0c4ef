"""Optional download client for daily close histories.

Talks to any quote endpoint that returns per-ticker CSV with date and
close columns, stooq-style by default. The HTTP transport is injectable
so tests (and offline use) never touch the network. Nothing else in the
package imports this module. A payload is read in the package's one CSV
dialect by `_files.csv_reader`, which filters its rows and names a faulty line.
"""

from __future__ import annotations

import math
from datetime import date
from typing import Callable, Iterable
from urllib import error, parse, request

from . import __version__
from ._files import SourceText, csv_reader, names
from .errors import DataFormatError, FetchError
from .market_data import PricePanel, _quote_matrix, parse_iso_date

__all__ = ["DEFAULT_URL_TEMPLATE", "fetch_history"]

DEFAULT_URL_TEMPLATE = "https://stooq.com/q/d/l/?s={symbol}&d1={start}&d2={end}&i=d"

# placeholder strings vendors use for a day without a quote
_NO_DATA = {"", "n/d", "nd", "null", "none", "-"}


def _http_get(url: str, timeout: float) -> str:
    req = request.Request(url, headers={"User-Agent": f"sectorfolio/{__version__}"})
    try:
        with request.urlopen(req, timeout=timeout) as resp:
            return resp.read().decode("utf-8", errors="replace")
    except (error.URLError, TimeoutError, OSError) as exc:
        raise FetchError(f"{url}: {exc}") from None


def _parse_rows(ticker: str, payload: str) -> dict[date, float]:
    """The payload's usable closes by date; an unusable payload raises FetchError."""
    if not payload:
        raise FetchError(f"{ticker}: empty response")
    rows: dict[date, float] = {}
    try:
        with csv_reader(SourceText(ticker, payload)) as (_, data, header):
            header = [h.strip().lower() for h in header]
            if "date" not in header or "close" not in header:
                raise FetchError(f"{ticker}: response has no date/close columns: {header!r}")
            date_col, close_col = header.index("date"), header.index("close")
            for _, row in data:
                cell = row[close_col].strip()
                if cell.lower() in _NO_DATA:
                    continue
                day = parse_iso_date(row[date_col].strip())
                close = float(cell)
                if not math.isfinite(close):
                    raise ValueError(f"close {cell!r} is not finite")
                if close <= 0.0:
                    continue
                if day in rows:
                    raise ValueError(f"duplicate date {day}")
                rows[day] = close
    except DataFormatError as exc:
        raise FetchError(str(exc)) from None
    if not rows:
        raise FetchError(f"{ticker}: no usable rows in response")
    return rows


def fetch_history(
    tickers: Iterable[str],
    start: date,
    end: date,
    *,
    url_template: str = DEFAULT_URL_TEMPLATE,
    suffix: str = "",
    transport: Callable[[str], str] | None = None,
    timeout: float = 30.0,
) -> PricePanel:
    """Download daily closes for each ticker over [start, end] as one panel,
    tickers in the given order, NaN where one has no quote.

    `suffix` is appended to each symbol before URL-encoding (exchange
    qualifiers like ".in"). `transport` maps a URL to response text;
    the default uses urllib with the given timeout.

    Raises FetchError when a request fails or a payload is unusable, and
    ValueError, before any request, for an inverted window or a ticker
    that `_files.names` refuses.
    """
    if start > end:
        raise ValueError(f"start {start} is after end {end}")
    tickers = names(list(tickers), "ticker")
    get = transport if transport is not None else (lambda url: _http_get(url, timeout))
    quotes: dict[str, dict[date, float]] = {}
    for ticker in tickers:
        url = url_template.format(
            symbol=parse.quote((ticker + suffix).lower()),
            start=start.strftime("%Y%m%d"),
            end=end.strftime("%Y%m%d"),
        )
        # a leading byte order mark is dropped, as `read_text` drops it
        quotes[ticker] = _parse_rows(ticker, get(url).removeprefix("\ufeff"))
    return PricePanel(*_quote_matrix(quotes))
