"""Portfolio-level arithmetic: weights, return, variance, Sharpe ratio.

Weights live on the long-only simplex (non-negative, summing to one).
Expected returns and risks are annual; covariance input is daily and is
scaled by the 250-day trading year where annual risk is needed.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ._files import first_cells
from .errors import AlignmentError, EmptyUniverseError
from .return_stats import TRADING_DAYS_PER_YEAR, CovarianceMatrix

__all__ = [
    "WeightVector",
    "PortfolioStats",
    "equal_weights",
    "portfolio_return",
    "portfolio_variance",
    "portfolio_annual_risk",
    "sharpe_ratio",
    "portfolio_stats",
]

_SUM_TOLERANCE = 1e-9


def _risk_free(rf: float) -> float:
    """`rf` as the annual risk-free rate of excess-return ratios: a float, finite."""
    rate = float(rf)
    if not math.isfinite(rate):
        raise ValueError("risk-free rate must be finite")
    return rate


def _check_simplex(weights: np.ndarray) -> None:
    """`weights` are finite, non-negative and sum to 1 within `_SUM_TOLERANCE`."""
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise ValueError("weights must be finite and non-negative")
    total = float(weights.sum())
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ValueError(f"weights must sum to 1 within {_SUM_TOLERANCE}, got {total!r}")


class WeightVector:
    """Long-only portfolio weights aligned to a ticker list.

    Weights must be non-negative and sum to 1 within 1e-9.
    """

    def __init__(self, tickers: list[str], weights: np.ndarray) -> None:
        if not tickers:
            raise EmptyUniverseError("weight vector needs at least one ticker")
        self.tickers = first_cells(tickers, "ticker")
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (len(self.tickers),):
            raise ValueError(
                f"{len(self.tickers)} tickers vs weight shape {self.weights.shape}"
            )
        _check_simplex(self.weights)

    def __len__(self) -> int:
        return len(self.tickers)

    def as_mapping(self) -> dict[str, float]:
        return {t: float(w) for t, w in zip(self.tickers, self.weights)}


class PortfolioStats(NamedTuple):
    """Annual return, annual risk, and Sharpe ratio of one portfolio, fixed once built."""

    annual_return: float
    annual_risk: float
    sharpe: float


def equal_weights(tickers: Sequence[str]) -> WeightVector:
    """The 1/n portfolio over `tickers`.

    Raises EmptyUniverseError when `tickers` is empty.
    """
    tickers = list(tickers)
    if not tickers:
        raise EmptyUniverseError("cannot build equal weights over zero tickers")
    return WeightVector(tickers, np.full(len(tickers), 1.0 / len(tickers)))


def _aligned(
    values: Mapping[str, float] | Sequence[float] | np.ndarray,
    tickers: list[str],
    what: str,
) -> np.ndarray:
    """Order `values` to `tickers`, raising AlignmentError on any mismatch
    and ValueError naming the first ticker whose value is not finite."""
    if isinstance(values, Mapping):
        missing = [t for t in tickers if t not in values]
        if missing:
            raise AlignmentError(f"{what} missing tickers: " + ", ".join(missing))
        arr = np.array([float(values[t]) for t in tickers])
    else:
        arr = np.asarray(values, dtype=float)
    if arr.shape != (len(tickers),):
        raise AlignmentError(
            f"{what} has shape {arr.shape}, expected ({len(tickers)},)"
        )
    if not np.all(np.isfinite(arr)):
        bad = tickers[int(np.flatnonzero(~np.isfinite(arr))[0])]
        raise ValueError(f"{what}: {bad} is not finite")
    return arr


# Book-score kernels, one book per row of `w`. The cloud scores its
# blocks with them and the functions below score one row, and a row gets
# the same bits alone or in a block. They use numpy's own loops, never
# BLAS: OpenBLAS rounds matrix products differently under different
# thread counts (measured with OpenBLAS 0.3.31 on x86-64 for W @ mu at
# 200 assets and for W @ C at 300).
def _book_returns(w: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return (w * mu).sum(axis=1)


def _book_variances(w: np.ndarray, entries: np.ndarray) -> np.ndarray:
    return (np.einsum("ij,jk->ik", w, entries) * w).sum(axis=1)


def _annual_risks(w: np.ndarray, entries: np.ndarray) -> np.ndarray:
    # a PSD-validated covariance can still round the quadratic form a
    # hair below zero; clamp before the square root
    return np.sqrt(np.maximum(_book_variances(w, entries), 0.0) * TRADING_DAYS_PER_YEAR)


def portfolio_return(
    weights: WeightVector,
    expected_returns: Mapping[str, float] | Sequence[float] | np.ndarray,
) -> float:
    """Weighted sum of per-asset expected returns.

    `expected_returns` is either a ticker-keyed mapping or a sequence
    already in the weight vector's ticker order. Units carry through, so
    annual inputs give an annual portfolio return. An expected return
    that is not finite is a ValueError naming its ticker.
    """
    mu = _aligned(expected_returns, weights.tickers, "expected returns")
    return float(_book_returns(weights.weights[None], mu)[0])


def _cov_entries(weights: WeightVector, cov: CovarianceMatrix | np.ndarray) -> np.ndarray:
    """Covariance entries in the weights' ticker order; a plain array is taken
    to be in that order and gets the checks `CovarianceMatrix` makes."""
    if isinstance(cov, CovarianceMatrix):
        if set(cov.tickers) != set(weights.tickers):
            raise AlignmentError(
                "covariance tickers do not match weight tickers: "
                f"{sorted(set(cov.tickers) ^ set(weights.tickers))}"
            )
        order = [cov.tickers.index(t) for t in weights.tickers]
        return cov.entries[np.ix_(order, order)]
    entries = np.asarray(cov, dtype=float)
    n = len(weights)
    if entries.shape != (n, n):
        raise AlignmentError(f"covariance shape {entries.shape}, expected ({n}, {n})")
    return CovarianceMatrix(weights.tickers, entries).entries


def portfolio_variance(
    weights: WeightVector, cov: CovarianceMatrix | np.ndarray
) -> float:
    """Quadratic form w' C w.

    Expanded, this is the sum of w_i^2 var_i over assets plus
    2 w_i w_j cov_ij over distinct pairs. Units follow the covariance
    input (daily in, daily out).
    """
    entries = _cov_entries(weights, cov)
    return float(_book_variances(weights.weights[None], entries)[0])


def portfolio_annual_risk(
    weights: WeightVector, cov: CovarianceMatrix | np.ndarray
) -> float:
    """Annual portfolio volatility, sqrt(w' C_daily w * 250)."""
    entries = _cov_entries(weights, cov)
    return float(_annual_risks(weights.weights[None], entries)[0])


def sharpe_ratio(
    annual_return: float,
    annual_risk: float,
    rf: float = 0.01,
) -> float:
    """Excess annual return over the annual risk-free rate `rf`, per unit of annual risk.

    Raises
    ------
    ValueError
        A return, risk or risk-free rate that is not finite, or a
        negative risk.
    ZeroDivisionError
        Zero risk, where the ratio is undefined.
    """
    if not (math.isfinite(annual_return) and math.isfinite(annual_risk)):
        raise ValueError(f"return and risk must be finite, got {annual_return}, {annual_risk}")
    if annual_risk < 0.0:
        raise ValueError(f"risk cannot be negative, got {annual_risk}")
    if annual_risk == 0.0:
        raise ZeroDivisionError("Sharpe ratio undefined at zero risk")
    return (annual_return - _risk_free(rf)) / annual_risk


def portfolio_stats(
    weights: WeightVector,
    expected_returns: Mapping[str, float] | Sequence[float] | np.ndarray,
    cov: CovarianceMatrix | np.ndarray,
    rf: float = 0.01,
) -> PortfolioStats:
    """Annual return, annual risk, and Sharpe for one weight vector.

    `expected_returns` must be annual and `cov` daily, matching what
    `return_stats` produces, and `rf` is the annual risk-free rate that
    `sharpe_ratio` takes.
    """
    annual_return = portfolio_return(weights, expected_returns)
    annual_risk = portfolio_annual_risk(weights, cov)
    return PortfolioStats(annual_return, annual_risk, sharpe_ratio(annual_return, annual_risk, rf))
