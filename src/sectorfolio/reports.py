"""Report-file serialization and the cross-sector summary.

Report CSVs print percentages with two decimals and weights with six.
Returns are held as fractions in memory and become ``*_pct`` columns on
disk.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from ._files import csv_reader, csv_writer, first_cells, names
from .errors import AlignmentError, DataFormatError, EmptySummaryError
from .portfolio import WeightVector
from .return_stats import AssetStats

__all__ = [
    "WINNERS",
    "SectorResult",
    "winner_counts",
    "write_stats_csv",
    "write_weights_csv",
    "read_weights_csv",
    "write_sector_result",
    "read_sector_results",
    "write_summary",
]

WINNERS = ("EWP", "ORP", "TIE")
_RESULT_HEADER = ["sector", "ewp_test_return_pct", "orp_test_return_pct", "winner"]


class SectorResult:
    """Head-to-head test-window outcome for one sector.

    Returns are fractions. The winner is derived: EWP wins on a strictly
    higher EWP return, ORP on a strictly higher ORP return, TIE on exact
    equality.
    """

    def __init__(self, sector: str, ewp_test_return: float, orp_test_return: float) -> None:
        first_cells([sector], "sector name")
        if not np.isfinite([ewp_test_return, orp_test_return]).all():
            raise ValueError("test returns must be finite")
        self.sector = sector
        self.ewp_test_return = ewp_test_return
        self.orp_test_return = orp_test_return
        if ewp_test_return > orp_test_return:
            self.winner = "EWP"
        elif orp_test_return > ewp_test_return:
            self.winner = "ORP"
        else:
            self.winner = "TIE"


def winner_counts(results: Sequence[SectorResult]) -> dict[str, int]:
    """How many sectors each strategy won."""
    counts = {w: 0 for w in WINNERS}
    for r in results:
        counts[r.winner] += 1
    return counts


def write_stats_csv(stats: Iterable[AssetStats], dest: str | Path | IO[str]) -> None:
    """Per-ticker annual return and risk, as percentages."""
    with csv_writer(dest, ["ticker", "annual_return_pct", "annual_risk_pct"]) as (_, writer):
        for s in stats:
            writer.writerow(
                [s.ticker, f"{s.annual_return * 100.0:.2f}", f"{s.annual_volatility * 100.0:.2f}"]
            )


def write_weights_csv(
    ewp: WeightVector,
    mrp: WeightVector,
    orp: WeightVector,
    dest: str | Path | IO[str],
) -> None:
    """The three candidate books side by side, six decimals per weight.

    All three vectors must cover the same tickers; rows follow the EWP
    vector's order.
    """
    maps = {"mrp": mrp.as_mapping(), "orp": orp.as_mapping()}
    for name, m in maps.items():
        if set(m) != set(ewp.tickers):
            raise AlignmentError(f"{name} weights cover different tickers than ewp")
    with csv_writer(dest, ["ticker", "ewp", "mrp", "orp"]) as (_, writer):
        for t, w in zip(ewp.tickers, ewp.weights):
            writer.writerow(
                [t, f"{w:.6f}", f"{maps['mrp'][t]:.6f}", f"{maps['orp'][t]:.6f}"]
            )


def read_weights_csv(source: str | Path | IO[str]) -> dict[str, WeightVector]:
    """Reload a weights file as {column name: WeightVector}.

    Six-decimal rounding leaves column sums a hair off 1, so each column
    is renormalized by its sum. A column whose sum strays more than 1e-4
    from 1, or that holds a negative or non-finite weight, is rejected
    as corrupt. Ticker cells are stripped, and an empty or repeated
    ticker is rejected with its line.
    """
    with csv_reader(source) as (path, rows, header):
        if len(header) < 2 or header[0] != "ticker":
            raise ValueError("not a weights header")
        columns = names([h.strip() for h in header[1:]], "column")
        tickers: list[str] = []
        values: list[list[float]] = []
        for _, row in rows:
            ticker = row[0].strip()
            if not ticker:
                raise ValueError("empty ticker")
            if ticker in tickers:
                raise ValueError(f"duplicate ticker {ticker!r}")
            tickers.append(ticker)
            values.append([float(x) for x in row[1:]])
    if not tickers:
        raise DataFormatError(f"{path}: no weight rows")
    matrix = np.array(values)
    out = {}
    for j, name in enumerate(columns):
        col = matrix[:, j]
        total = float(col.sum())
        if not abs(total - 1.0) <= 1e-4:  # NaN fails too
            raise DataFormatError(
                f"{path}: column {name!r} sums to {total:.6f}, not a weight column"
            )
        try:
            out[name] = WeightVector(list(tickers), col / total)
        except ValueError as exc:
            raise DataFormatError(f"{path}: column {name!r}: {exc}") from None
    return out


def write_sector_result(result: SectorResult, dest: str | Path | IO[str]) -> None:
    """One sector's EWP/ORP outcome as a single-row report CSV."""
    _write_result_rows([result], dest, footer=False)


def write_summary(results: Sequence[SectorResult], dest: str | Path | IO[str]) -> None:
    """All sectors side by side, plus a win-count footer comment.

    Raises EmptySummaryError when `results` is empty, ValueError on a repeated sector.
    """
    if not results:
        raise EmptySummaryError("no sector results to summarize")
    names([r.sector for r in results], "sector name")
    _write_result_rows(results, dest, footer=True)


def _write_result_rows(
    results: Sequence[SectorResult], dest: str | Path | IO[str], footer: bool
) -> None:
    with csv_writer(dest, _RESULT_HEADER) as (fh, writer):
        for r in results:
            writer.writerow(
                [r.sector, f"{r.ewp_test_return * 100.0:.2f}", f"{r.orp_test_return * 100.0:.2f}", r.winner]
            )
        if footer:
            counts = winner_counts(results)
            note = f"# EWP wins: {counts['EWP']}, ORP wins: {counts['ORP']}"
            if counts["TIE"]:
                note += f", ties: {counts['TIE']}"
            fh.write(note + "\n")


def read_sector_results(*sources: str | Path | IO[str]) -> list[SectorResult]:
    """Read sector results from result or summary CSVs, in order.

    The stored winner must not contradict the printed returns (a
    two-decimal tie is allowed to carry either label, since rounding can
    mask a hairline margin). Sector names are stripped. An empty sector
    name, a return that is not finite, and a sector read before, in the
    same source or an earlier one, are rejected with the line.
    """
    results = []
    # where each sector was first read: source position, name and line
    first: dict[str, tuple[int, str, int]] = {}
    for k, source in enumerate(sources):
        with csv_reader(source) as (path, rows, header):
            if header != _RESULT_HEADER:
                raise ValueError("not a sector-result header")
            for line, row in rows:
                sector, ewp_text, orp_text, winner = row
                if winner not in WINNERS:
                    raise ValueError(f"unknown winner {winner!r}")
                result = SectorResult(
                    sector.strip(), float(ewp_text) / 100.0, float(orp_text) / 100.0
                )
                tie = result.ewp_test_return == result.orp_test_return
                if result.winner != winner and not tie:
                    raise ValueError(f"winner {winner!r} contradicts returns")
                if result.sector in first:
                    held, name, seen = first[result.sector]
                    where = f"line {seen}" if held == k else f"{name} line {seen}"
                    raise ValueError(f"sector {result.sector!r} repeats {where}")
                first[result.sector] = (k, path, line)
                result.winner = winner if tie else result.winner
                results.append(result)
    return results
