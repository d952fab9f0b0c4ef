"""Two-point buy-and-hold backtesting with fractional shares.

A backtest buys at the first price of the holding window, holds, and
values the book at the last price. Shares are fractional, so money in
is exactly money deployed and the arithmetic stays exact.

Capital modes
-------------
simplex
    Deploy all of `capital` in the given weights. The usual mode.
fixed-amount-per-stock
    Put ``capital / nominal`` into each ticker, where ``nominal`` is
    the configured universe size before any data-driven exclusions.
    With exclusions this deploys less than `capital` in total, which is
    exactly how an equal-ticket book behaves when a name is dropped.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import IO, Mapping, NamedTuple, Sequence

import numpy as np

from ._files import csv_writer
from .errors import InsufficientDataError
from .market_data import PricePanel
from .portfolio import WeightVector, _aligned

__all__ = [
    "MODES",
    "Allocation",
    "BacktestReport",
    "run_backtest",
    "backtest_from_panel",
    "write_backtest_csv",
]

MODES = ("simplex", "fixed-amount-per-stock")


class Allocation(NamedTuple):
    """One ticker's fixed line in a backtest book; equal to another when every field is."""

    ticker: str
    weight: float
    buy_price: float
    amount_invested: float
    shares: float
    sell_price: float
    terminal_value: float


class BacktestReport(NamedTuple):
    """A completed buy-and-hold run, fixed once built; equal to another when every field is.

    `holding_return` is a fraction of `initial_capital`, the money
    actually deployed (which is below the nominal capital in
    fixed-amount-per-stock mode with exclusions).
    """

    allocations: list[Allocation]
    initial_capital: float
    terminal_capital: float
    holding_return: float


def _check_capital(capital: float) -> None:
    if not 0.0 < capital < math.inf:
        raise ValueError(f"capital must be positive and finite, got {capital}")


def run_backtest(
    weights: WeightVector,
    buy_prices: Mapping[str, float] | Sequence[float] | np.ndarray,
    sell_prices: Mapping[str, float] | Sequence[float] | np.ndarray,
    capital: float,
    mode: str = "simplex",
    nominal_universe_size: int | None = None,
) -> BacktestReport:
    """Buy at `buy_prices`, hold, and value the book at `sell_prices`.

    Parameters
    ----------
    weights : the book's tickers and, in simplex mode, its weights.
    buy_prices, sell_prices : per-ticker prices, mapping or sequence in
        weight order. Must be positive.
    capital : nominal capital, positive.
    mode : "simplex" or "fixed-amount-per-stock" (see module docstring).
    nominal_universe_size : fixed-amount-per-stock only; defaults to the number
        of tickers in `weights`.

    Raises
    ------
    AlignmentError : a price is missing for some ticker.
    ValueError : capital or a price that is not positive and finite, an
        unknown mode, or a nominal universe size below the book's count.
    """
    _check_capital(capital)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, known: {', '.join(MODES)}")
    buy = _aligned(buy_prices, weights.tickers, "buy prices")
    sell = _aligned(sell_prices, weights.tickers, "sell prices")
    for name, arr in (("buy", buy), ("sell", sell)):
        if np.any(arr <= 0.0):
            bad = weights.tickers[int(np.flatnonzero(arr <= 0.0)[0])]
            raise ValueError(f"{name} price for {bad} must be finite and positive")

    if mode == "simplex":
        booked = weights.weights.copy()
        amounts = booked * capital
    else:
        nominal = nominal_universe_size if nominal_universe_size is not None else len(weights)
        if nominal < len(weights):
            raise ValueError(
                f"nominal universe size {nominal} is below the book's {len(weights)} tickers"
            )
        booked = np.full(len(weights), 1.0 / nominal)
        amounts = np.full(len(weights), capital / nominal)

    shares = amounts / buy
    terminal = shares * sell
    initial_capital = float(amounts.sum())
    terminal_capital = float(terminal.sum())
    allocations = [
        Allocation(t, float(w), float(b), float(a), float(sh), float(sp), float(tv))
        for t, w, b, a, sh, sp, tv in zip(
            weights.tickers, booked, buy, amounts, shares, sell, terminal
        )
    ]
    return BacktestReport(
        allocations,
        initial_capital,
        terminal_capital,
        terminal_capital / initial_capital - 1.0,
    )


def backtest_from_panel(
    weights: WeightVector,
    panel: PricePanel,
    capital: float,
    mode: str = "simplex",
    nominal_universe_size: int | None = None,
) -> BacktestReport:
    """Run a backtest buying at a panel's first date and selling at its last.

    The panel must be complete and span at least two dates; tickers in
    `weights` must all be present in it (MissingTickerError names any
    that is not), in any order.
    """
    if not panel.is_complete:
        raise ValueError("panel has gaps; fill them before backtesting")
    if panel.n_dates < 2:
        raise InsufficientDataError(
            f"backtest needs at least 2 dates, panel has {panel.n_dates}"
        )
    closes = panel.window(weights.tickers).closes
    return run_backtest(weights, closes[:, 0], closes[:, -1], capital, mode, nominal_universe_size)


def write_backtest_csv(report: BacktestReport, dest: str | Path | IO[str]) -> None:
    """Write a backtest book as a report CSV.

    One row per ticker in book order, then a TOTAL row carrying the
    deployed capital, terminal capital, and percent return. Money and
    share figures use two decimals, weights six; the percent return
    appears only on the TOTAL row.
    """
    header = ["ticker", "weight", "buy_price", "amount_invested",
              "shares", "sell_price", "terminal_value", "return_pct"]
    with csv_writer(dest, header) as (_, writer):
        for a in report.allocations:
            writer.writerow(
                [a.ticker, f"{a.weight:.6f}", f"{a.buy_price:.2f}",
                 f"{a.amount_invested:.2f}", f"{a.shares:.2f}",
                 f"{a.sell_price:.2f}", f"{a.terminal_value:.2f}", ""]
            )
        writer.writerow(
            ["TOTAL", f"{sum(a.weight for a in report.allocations):.6f}", "",
             f"{report.initial_capital:.2f}", "", "",
             f"{report.terminal_capital:.2f}", f"{report.holding_return * 100.0:.2f}"]
        )
