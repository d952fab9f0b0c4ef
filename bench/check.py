"""Output check: the CLI's files against a numpy reference.

The reference is computed here from the generated arrays, not from the
package: the missing-data screen and fill, mean returns and the sample
covariance, then the cloud itself, regenerated from the Philox draws of
``(seed, i)`` and scored in one vectorized pass.

Tolerances, fixed before any run:

* ``RTOL``: 1e-9 relative on the flagged rows' annual risk and Sharpe
  ratio and on the flagged rows' weights. ``frontier.csv`` prints 12
  significant digits (5e-12 relative), and the program scores one
  sample at a time where the reference uses matrix products, which
  moves the last few bits only.
* ``WEIGHT_ATOL``: 1e-6 on ``weights.csv`` entries, printed with six
  decimals (5e-7 rounding).
* ``PCT_ATOL``: 0.006 percentage points on two-decimal percentages
  (0.005 rounding).
* Money in backtest reports has two decimals, so a TOTAL sum may miss
  its rows by half a cent per row.

The backtest check is internal consistency only: it never compares a
buy price to the data, so it encodes neither the current back-fill of a
suspended ticker nor a fix for it.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from workloads import CAPITAL, DRAW_SEED, RF, THRESHOLD, Sector, Workload

RTOL = 1e-9
WEIGHT_ATOL = 1e-6
PCT_ATOL = 0.006
DAYS_PER_YEAR = 250


class CheckError(Exception):
    """An output file disagrees with the reference."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-12)


class Reference:
    """What one sector's outputs must say, from the generated arrays."""

    def __init__(self, workload: Workload, sector: Sector):
        lo, hi = workload.train
        block = workload.prices.rows(sector.tickers)[:, lo:hi]
        # the panel spans the dates on which any sector ticker has a quote
        block = block[:, ~np.all(np.isnan(block), axis=0)]
        fractions = np.isnan(block).sum(axis=1) / block.shape[1]
        keep = fractions <= THRESHOLD
        self.excluded = [(t, float(f)) for t, f, k in zip(sector.tickers, fractions, keep)
                         if not k]
        self.retained = [t for t, k in zip(sector.tickers, keep) if k]
        closes = _forward_fill(block[keep])
        returns = closes[:, 1:] / closes[:, :-1] - 1.0
        self.mu = returns.mean(axis=1) * DAYS_PER_YEAR
        cov = np.atleast_2d(np.cov(returns, ddof=1))

        n = len(self.retained)
        per = 4 * ((n + 3) // 4)
        u = np.random.Generator(np.random.Philox(key=DRAW_SEED)).random(
            (workload.shape.samples, per))[:, :n]
        if workload.sampler == "dirichlet":
            u = -np.log1p(-u)
        self.weights = u / u.sum(axis=1, keepdims=True)
        var = np.einsum("ij,ij->i", self.weights @ cov, self.weights)
        self.risk = np.sqrt(np.maximum(var, 0.0) * DAYS_PER_YEAR)
        self.sharpe = (self.weights @ self.mu - RF) / self.risk
        self.mrp = int(np.argmin(self.risk))
        self.orp = int(np.argmax(self.sharpe))


def _forward_fill(closes: np.ndarray) -> np.ndarray:
    """Carry each row's last quote forward; a leading gap takes the first quote."""
    out = closes.copy()
    for row in out:
        seen = np.flatnonzero(~np.isnan(row))
        idx = np.where(np.isnan(row), -1, np.arange(row.size))
        idx = np.maximum.accumulate(idx)
        idx[idx < 0] = seen[0]
        row[:] = row[idx]
    return out


def _rows(path: Path) -> list[list[str]]:
    _expect(path.is_file(), f"{path.name}: missing")
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def check_exclusions(ref: Reference, directory: Path) -> None:
    path = directory / "exclusions.log"
    if not ref.excluded:
        _expect(not path.exists(), "exclusions.log written with nothing excluded")
        return
    rows = _rows(path)[1:]
    _expect([r[0] for r in rows] == [t for t, _ in ref.excluded],
            f"exclusions.log lists {[r[0] for r in rows]}, expected {ref.excluded}")
    for (ticker, fraction), row in zip(ref.excluded, rows):
        _expect(abs(float(row[1]) - fraction) <= 1e-4, f"exclusions.log: {ticker} fraction")


def check_stats(ref: Reference, directory: Path) -> None:
    rows = _rows(directory / "stats.csv")[1:]
    _expect([r[0] for r in rows] == ref.retained, "stats.csv: tickers differ from the screen")
    for row, mu in zip(rows, ref.mu):
        _expect(abs(float(row[1]) - mu * 100.0) <= PCT_ATOL, f"stats.csv: {row[0]} return")


def check_weights(ref: Reference, directory: Path) -> None:
    rows = _rows(directory / "weights.csv")
    _expect(rows[0] == ["ticker", "ewp", "mrp", "orp"], "weights.csv: header")
    _expect([r[0] for r in rows[1:]] == ref.retained, "weights.csv: tickers differ")
    table = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    n = len(ref.retained)
    for j, name, want in ((0, "ewp", np.full(n, 1.0 / n)),
                          (1, "mrp", ref.weights[ref.mrp]),
                          (2, "orp", ref.weights[ref.orp])):
        _expect(np.all(np.abs(table[:, j] - want) <= WEIGHT_ATOL),
                f"weights.csv: {name} column differs from the reference")


def check_frontier(ref: Reference, directory: Path) -> None:
    flagged: dict[str, tuple[int, list[str]]] = {}
    count = 0
    with open(directory / "frontier.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        _expect(header[3:-1] == [f"w_{t}" for t in ref.retained], "frontier.csv: header")
        for i, row in enumerate(reader):
            count += 1
            for flag in filter(None, row[-1].split("+")):
                _expect(flag not in flagged, f"frontier.csv: {flag} flagged twice")
                flagged[flag] = (i, row)
    _expect(count == ref.risk.size, f"frontier.csv: {count} rows, expected {ref.risk.size}")
    _expect(set(flagged) == {"mrp", "orp"}, f"frontier.csv: flags {sorted(flagged)}")
    for flag, column, want in (("mrp", 0, ref.risk[ref.mrp]), ("orp", 2, ref.sharpe[ref.orp])):
        i, row = flagged[flag]
        _expect(_close(float(row[column]), want),
                f"frontier.csv: {flag} row {i} has {row[column]}, reference {want!r}")
        weights = np.array([float(x) for x in row[3:-1]])
        _expect(np.all(np.abs(weights - ref.weights[i]) <= RTOL),
                f"frontier.csv: {flag} row {i} weights are not draw {i}")


def backtest_total(path: Path, tickers: list[str], capital: float) -> str:
    """Check a backtest's TOTAL row against its own rows; returns return_pct."""
    rows = _rows(path)
    body, total = rows[1:-1], rows[-1]
    _expect(total[0] == "TOTAL", f"{path.name}: last row is not TOTAL")
    _expect([r[0] for r in body] == tickers, f"{path.name}: tickers differ from the screen")
    for r in body:
        # buy and hold: terminal = invested * sell / buy, each printed to a cent
        amount, buy, sell, value = (float(r[i]) for i in (3, 2, 5, 6))
        held = amount * sell / buy
        slack = 0.005 + 1.01 * (0.005 * sell / buy + held * (0.005 / buy + 0.005 / sell))
        _expect(abs(value - held) <= slack, f"{path.name}: {r[0]} terminal value is not "
                "invested * sell / buy")
    cents = 0.005 * (len(body) + 1)
    invested, terminal = float(total[3]), float(total[6])
    _expect(abs(sum(float(r[3]) for r in body) - invested) <= cents,
            f"{path.name}: invested rows do not sum to TOTAL")
    _expect(abs(sum(float(r[6]) for r in body) - terminal) <= cents,
            f"{path.name}: terminal rows do not sum to TOTAL")
    _expect(abs(sum(float(r[1]) for r in body) - float(total[1])) <= 5e-7 * (len(body) + 1),
            f"{path.name}: weights do not sum to TOTAL")
    _expect(abs(invested - capital) <= 0.01, f"{path.name}: invested {invested}, expected {capital}")
    _expect(abs((terminal / invested - 1.0) * 100.0 - float(total[7])) <= PCT_ATOL,
            f"{path.name}: TOTAL return_pct disagrees with its capital")
    return total[7]


def check_result(sector: Sector, ref: Reference, directory: Path) -> tuple[str, ...]:
    """Both backtests and sector_result.csv; returns the result row."""
    ewp = backtest_total(directory / "backtest_ewp.csv", ref.retained,
                         CAPITAL * len(ref.retained) / len(sector.tickers))
    orp = backtest_total(directory / "backtest_orp.csv", ref.retained, CAPITAL)
    rows = _rows(directory / "sector_result.csv")
    _expect(len(rows) == 2, "sector_result.csv: expected one result row")
    name, ewp_pct, orp_pct, winner = rows[1]
    _expect((name, ewp_pct, orp_pct) == (sector.name, ewp, orp),
            f"sector_result.csv: {rows[1]} does not match the backtests")
    a, b = float(ewp_pct), float(orp_pct)
    _expect(winner == ("EWP" if a > b else "ORP") or (a == b and winner in ("EWP", "ORP", "TIE")),
            f"sector_result.csv: winner {winner} contradicts the returns")
    return name, ewp_pct, orp_pct, winner


def check_summary(path: Path, results: list[tuple[str, ...]]) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [r for r in csv.reader(lines) if r and not r[0].startswith("#")]
    _expect(sorted(map(tuple, rows[1:])) == sorted(results),
            "summary.csv: rows differ from the sector results")
    wins = {w: sum(r[3] == w for r in results) for w in ("EWP", "ORP", "TIE")}
    footer = f"# EWP wins: {wins['EWP']}, ORP wins: {wins['ORP']}"
    if wins["TIE"]:
        footer += f", ties: {wins['TIE']}"
    _expect(lines[-1] == footer, f"summary.csv: footer {lines[-1]!r}, expected {footer!r}")


def check_outputs(workload: Workload, out: Path) -> None:
    """Raise CheckError unless every output under `out` matches the reference."""
    results = []
    for sector in workload.sectors:
        directory = out / sector.out_subdir
        ref = Reference(workload, sector)
        check_exclusions(ref, directory)
        check_weights(ref, directory)
        if workload.command == "pipeline":
            check_stats(ref, directory)
            check_frontier(ref, directory)
            results.append(check_result(sector, ref, directory))
    if len(workload.sectors) > 1:
        check_summary(out / "summary.csv", results)
