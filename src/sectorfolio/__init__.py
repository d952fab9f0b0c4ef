"""Sector-portfolio analytics.

Builds per-asset return statistics from daily closes, samples random
long-only portfolios into an efficient-frontier cloud, picks the
minimum-risk and maximum-Sharpe books, and backtests them buy-and-hold
against the equal-weight portfolio. A small CLI (``sectorfolio``)
drives the same steps per sector and rolls results into a cross-sector
summary.

The package's public names are those its modules list in ``__all__``.
"""

from . import backtest, errors, frontier, market_data, portfolio, reports, return_stats
from .backtest import *
from .errors import *
from .frontier import *
from .market_data import *
from .portfolio import *
from .reports import *
from .return_stats import *

__version__ = "0.2.0"

__all__ = ["__version__", "errors"] + [
    name
    for module in (errors, market_data, return_stats, portfolio, frontier, backtest, reports)
    for name in module.__all__
]
