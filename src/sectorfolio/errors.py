"""Exception types shared across the package.

Everything raised for a domain reason derives from AnalyticsError so
callers (and the CLI) can catch one base class. Plain ValueError and
ZeroDivisionError are still used where the failure is a generic numeric
precondition rather than a portfolio-domain condition.
"""

from __future__ import annotations

__all__ = [
    "AnalyticsError",
    "DataFormatError",
    "MissingTickerError",
    "EmptyPanelError",
    "EmptyUniverseError",
    "InsufficientDataError",
    "DegenerateAssetError",
    "AlignmentError",
    "EmptyCloudError",
    "DegenerateSampleError",
    "EmptySummaryError",
    "FetchError",
]


class AnalyticsError(Exception):
    """Base class for all domain errors raised by this package."""


class DataFormatError(AnalyticsError):
    """A price, config, or report file is malformed. Message names the file, and any line."""


class MissingTickerError(AnalyticsError):
    """A configured ticker has no rows at all in the price source."""

    def __init__(self, tickers: list[str]):
        self.tickers = list(tickers)
        super().__init__("tickers absent from price source: " + ", ".join(self.tickers))


class EmptyPanelError(AnalyticsError):
    """Loading or cutting a panel produced no dates or no tickers."""


class EmptyUniverseError(AnalyticsError):
    """No tickers left to work with (all excluded, or none configured)."""


class InsufficientDataError(AnalyticsError):
    """Too few observations for the requested statistic."""


class DegenerateAssetError(AnalyticsError):
    """An asset has zero variance where a correlation or ratio needs it positive."""


class AlignmentError(AnalyticsError):
    """Ticker sets or dimensions of two inputs do not line up."""


class EmptyCloudError(AnalyticsError):
    """A frontier operation was asked for on a cloud with no samples."""


class DegenerateSampleError(AnalyticsError):
    """A frontier cloud contains a zero-risk sample, so Sharpe selection is undefined."""


class EmptySummaryError(AnalyticsError):
    """A cross-sector summary was requested with no sector results."""


class FetchError(AnalyticsError):
    """A remote price download failed or returned an unusable payload."""
