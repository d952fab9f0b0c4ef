"""Per-asset return statistics and covariance estimation.

Conventions used throughout:

* Daily returns are simple percentage changes, ``close[t] / close[t-1] - 1``.
* A year is 250 trading days. Mean daily return annualizes by 250,
  daily volatility by sqrt(250).
* Dispersion statistics are sample statistics (ddof=1).

All statistics expect a complete panel, so run
`market_data.apply_missing_data_policy` (or `fill_gaps`) before calling
the panel-level functions here. `asset_stats` and `covariance_matrix`
each divide the whole close matrix at once into their own returns
matrix, and the per-series functions run the same row kernels on one row.
"""

from __future__ import annotations

import math
from datetime import date
from typing import NamedTuple

import numpy as np

from ._files import names
from .errors import DegenerateAssetError, InsufficientDataError
from .market_data import PricePanel, PriceSeries, _increasing

__all__ = [
    "TRADING_DAYS_PER_YEAR",
    "ReturnSeries",
    "AssetStats",
    "CovarianceMatrix",
    "daily_returns",
    "annualize_return",
    "daily_volatility",
    "annual_volatility",
    "asset_stats",
    "covariance_matrix",
    "correlation_matrix",
]

TRADING_DAYS_PER_YEAR = 250


class ReturnSeries:
    """Daily simple returns for one ticker.

    ``dates[k]`` is the date the k-th return was realized, i.e. the
    later date of the price pair it was computed from.
    """

    def __init__(self, ticker: str, dates: list[date], returns: np.ndarray) -> None:
        names([ticker], "ticker")
        self.ticker = ticker
        self.dates = dates
        self.returns = np.asarray(returns, dtype=float)
        if self.returns.ndim != 1 or len(self.dates) != self.returns.size:
            raise ValueError(
                f"{self.ticker}: {len(self.dates)} dates vs {self.returns.size} returns"
            )
        _increasing(self.dates, f"{self.ticker}: dates")
        if not np.all(np.isfinite(self.returns)) or np.any(self.returns <= -1.0):
            raise ValueError(
                f"{self.ticker}: simple returns must be finite and greater than -1"
            )

    def __len__(self) -> int:
        return self.returns.size


class AssetStats(NamedTuple):
    """Annualized summary statistics for one asset, fixed once built."""

    ticker: str
    annual_return: float
    daily_volatility: float
    annual_volatility: float


class CovarianceMatrix:
    """Sample covariance of daily returns across a set of assets.

    `entries` is in daily units and held in C order; times
    `TRADING_DAYS_PER_YEAR` they are annual. Construction validates
    symmetry and rejects matrices that are materially
    non-positive-semidefinite.
    """

    def __init__(self, tickers: list[str], entries: np.ndarray) -> None:
        n = len(tickers)
        if n == 0:
            raise ValueError("covariance needs at least one ticker")
        self.tickers = names(tickers, "ticker")
        self.entries = np.ascontiguousarray(entries, dtype=float)
        if self.entries.shape != (n, n):
            raise ValueError(
                f"covariance shape {self.entries.shape} does not match {n} tickers"
            )
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("covariance entries must be finite")
        scale = max(1.0, float(np.max(np.abs(self.entries))))
        if np.max(np.abs(self.entries - self.entries.T)) > 1e-12 * scale:
            raise ValueError("covariance matrix is not symmetric")
        if np.any(np.diag(self.entries) < 0.0):
            raise ValueError("negative variance on the covariance diagonal")
        # allow the eigenvalue smudge a sample estimate can carry, no more
        floor = -1e-8 * max(1.0, float(np.max(np.diag(self.entries))))
        if float(np.min(np.linalg.eigvalsh(self.entries))) < floor:
            raise ValueError("covariance matrix is not positive semidefinite")


def daily_returns(series: PriceSeries) -> ReturnSeries:
    """Compute daily simple returns from a price series.

    Parameters
    ----------
    series : PriceSeries
        At least two observations.

    Returns
    -------
    ReturnSeries
        One return per consecutive price pair, dated at the later price.

    Raises
    ------
    InsufficientDataError
        Fewer than two prices.
    """
    if len(series) < 2:
        raise InsufficientDataError(
            f"{series.ticker}: need at least 2 prices for returns, have {len(series)}"
        )
    returns = _simple_returns(series.closes[None])[0]
    return ReturnSeries(series.ticker, list(series.dates[1:]), returns)


def annualize_return(returns: ReturnSeries) -> float:
    """Annualized mean return: mean daily return times 250.

    Raises
    ------
    InsufficientDataError
        Empty return series.
    """
    if len(returns) == 0:
        raise InsufficientDataError(f"{returns.ticker}: no returns to annualize")
    return float(_annual_means(returns.returns[None])[0])


def daily_volatility(returns: ReturnSeries) -> float:
    """Sample standard deviation (ddof=1) of daily returns.

    Raises
    ------
    InsufficientDataError
        Fewer than two returns, where the sample deviation is undefined.
    """
    if len(returns) < 2:
        raise InsufficientDataError(
            f"{returns.ticker}: need at least 2 returns for volatility, have {len(returns)}"
        )
    return float(_sample_deviations(returns.returns[None])[0])


def annual_volatility(daily_vol: float) -> float:
    """Scale a daily volatility to annual units by sqrt(250).

    Raises
    ------
    ValueError
        Negative input.
    """
    if daily_vol < 0.0:
        raise ValueError(f"volatility cannot be negative, got {daily_vol}")
    return daily_vol * math.sqrt(TRADING_DAYS_PER_YEAR)


def asset_stats(panel: PricePanel) -> list[AssetStats]:
    """Annualized return and volatility for every ticker in a panel.

    The panel must be complete (no gaps) and hold at least three dates,
    so that each ticker has two or more returns.
    """
    returns = _daily_returns(panel)
    means = _annual_means(returns).tolist()
    vols = _sample_deviations(returns).tolist()
    return [AssetStats(t, m, dv, annual_volatility(dv)) for t, m, dv in zip(panel.tickers, means, vols)]


def covariance_matrix(panel: PricePanel) -> CovarianceMatrix:
    """Sample covariance matrix of daily returns for a complete panel.

    Parameters
    ----------
    panel : PricePanel
        Complete (gap-free) panel with at least three dates.

    Returns
    -------
    CovarianceMatrix
        Daily-unit covariance in panel ticker order, ddof=1.

    Raises
    ------
    ValueError
        The panel still has gaps.
    InsufficientDataError
        Fewer than three dates (fewer than two returns per asset).
    """
    returns = _daily_returns(panel)
    centred = returns - returns.mean(axis=1, keepdims=True)
    # numpy's own loops, not BLAS: np.cov's bits change with the BLAS
    # thread count (OpenBLAS 0.3.31, 100 tickers), and each (i, j) and
    # (j, i) entry sums the same products in the same order
    entries = np.einsum("it,jt->ij", centred, centred) / (returns.shape[1] - 1)
    return CovarianceMatrix(list(panel.tickers), entries)


def correlation_matrix(cov: CovarianceMatrix) -> np.ndarray:
    """Correlation matrix implied by a covariance matrix.

    The diagonal is exactly 1. Off-diagonal entries are
    cov(i, j) / (sigma_i * sigma_j).

    Raises
    ------
    DegenerateAssetError
        Some asset has zero variance, naming the ticker.
    """
    variances = np.diag(cov.entries)
    flat = [t for t, v in zip(cov.tickers, variances) if v == 0.0]
    if flat:
        raise DegenerateAssetError(
            "zero-variance tickers have no defined correlation: " + ", ".join(flat)
        )
    sigma = np.sqrt(variances)
    corr = cov.entries / np.outer(sigma, sigma)
    np.fill_diagonal(corr, 1.0)
    return corr


def _daily_returns(panel: PricePanel) -> np.ndarray:
    """Daily simple returns of a complete panel of three or more dates, one row per ticker."""
    if not panel.is_complete:
        raise ValueError("panel has gaps; apply the missing-data policy first")
    if panel.n_dates < 3:
        raise InsufficientDataError(f"need at least 3 dates, panel has {panel.n_dates}")
    return _simple_returns(panel.closes)


def _simple_returns(closes: np.ndarray) -> np.ndarray:
    return closes[:, 1:] / closes[:, :-1] - 1.0


def _annual_means(returns: np.ndarray) -> np.ndarray:
    return returns.mean(axis=1) * TRADING_DAYS_PER_YEAR


def _sample_deviations(returns: np.ndarray) -> np.ndarray:
    return returns.std(axis=1, ddof=1)
