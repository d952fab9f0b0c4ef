"""Shared fixture builders for the test suite."""

from __future__ import annotations

import io
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np

from sectorfolio import DataFormatError, EmptyPanelError, PricePanel, write_long_csv
from sectorfolio import market_data


def weekdays(start: date, count: int) -> list[date]:
    """The first `count` weekdays at or after `start`."""
    days: list[date] = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def random_panel(
    tickers: list[str],
    n_days: int,
    seed: int,
    start: date = date(2020, 1, 6),
    drift: float = 0.0005,
    vol: float = 0.015,
) -> PricePanel:
    """Complete random-walk price panel, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(drift, vol, size=(len(tickers), n_days))
    closes = 50.0 * np.cumprod(1.0 + steps, axis=1)
    return PricePanel(list(tickers), weekdays(start, n_days), closes)


def write_prices(path: Path, panel: PricePanel) -> Path:
    write_long_csv(panel, path)
    return path


def write_universe(
    path: Path,
    sector: str,
    tickers: list[str],
    train: tuple[date, date],
    test: tuple[date, date],
    prices: str | None = None,
) -> Path:
    lines = [
        "[universe]",
        f"sector = {sector}",
        "tickers = " + " ".join(tickers),
        f"train = {train[0]}:{train[1]}",
        f"test = {test[0]}:{test[1]}",
    ]
    if prices:
        lines.append(f"prices = {prices}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _outcome(text: str) -> tuple | str:
    """`parse_price_file` on a text: its panel's tickers, dates and close bits, or its error."""
    try:
        panel = market_data.parse_price_file(io.StringIO(text, newline=""))
    except (DataFormatError, EmptyPanelError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return panel.tickers, panel.dates, panel.closes.shape, panel.closes.tobytes()


def check_array_path(text: str) -> bool:
    """Check the long layout's array path against its loop on one text.

    The array path returns nothing or exactly the loop's tickers, dates and
    closes, NaN included, and `parse_price_file` gives the loop's panel or
    raises the loop's exact message. True when the array path took the text.
    """
    with mock.patch.object(market_data, "_parse_long_arrays", return_value=None):
        loop = _outcome(text)
    assert _outcome(text) == loop
    arrays = market_data._parse_long_arrays(text)
    if arrays is not None:
        tickers, dates, closes = arrays
        assert (tickers, dates, closes.shape, closes.tobytes()) == loop
    return arrays is not None
