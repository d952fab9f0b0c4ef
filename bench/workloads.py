"""Seeded synthetic inputs for the benchmark workloads.

Every workload is a random-walk close panel written as the CSV layout
the workload exercises, plus the universe INI files that point at it.
The generated arrays are kept alongside the files so the output check
can compute its own reference from exactly the values the program
parses. The same ``(workload, seed, size)`` always writes byte-identical
files.

Workloads (full size):

* ``sector``: ``pipeline`` on one 50-ticker sector, long CSV, 1,500
  weekdays (1,250 train, 250 test), ~2% scattered gaps, one late
  listing over the 30% screen and one retained ticker suspended for the
  first 10 test days. 10k ``uniform`` samples.
* ``cloud``: ``weights`` on a 10-ticker sector with 50k ``dirichlet``
  samples; parsing is a small share and nothing is exported.
* ``market``: ``pipeline --all`` over 13 six-ticker sector INIs that
  share one wide CSV of 78 tickers x 600 weekdays (450 train, 150
  test). 600 samples, so the 26 parses of the shared file dominate.

Each call takes about 2.5 to 4 s, so a run of 40 s has about ten of
them to take a median over.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

WORKLOADS = ("sector", "cloud", "market")
SIZES = ("full", "smoke")

# sampling settings shared by every workload; the benchmark seed varies
# the data, not the draws
DRAW_SEED = 0
RF = 0.01
THRESHOLD = 0.30
CAPITAL = 100_000.0

# the paper's thirteen sector summary
MARKET_SECTORS = (
    "Auto", "Banking", "Consumer Durables", "Financial Services", "FMCG",
    "IT", "Media", "Metal", "Oil & Gas", "Pharma", "Public Sector Banks",
    "Private Banks", "Realty",
)

_TAGS = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Shape:
    tickers: int
    train_days: int
    test_days: int
    samples: int
    gap_rate: float
    suspended_days: int = 0


SHAPES = {
    ("sector", "full"): Shape(50, 1250, 250, 10_000, 0.02, suspended_days=10),
    ("sector", "smoke"): Shape(6, 60, 20, 200, 0.02, suspended_days=5),
    ("cloud", "full"): Shape(10, 1250, 250, 50_000, 0.02),
    ("cloud", "smoke"): Shape(4, 60, 20, 500, 0.02),
    # tickers per sector; 13 sectors share one file
    ("market", "full"): Shape(6, 450, 150, 600, 0.01),
    ("market", "smoke"): Shape(3, 45, 15, 50, 0.01),
}


@dataclass
class Prices:
    """Closes exactly as written: NaN where the file has no quote."""

    tickers: list[str]
    dates: list[date]
    closes: np.ndarray

    def rows(self, tickers: list[str]) -> np.ndarray:
        index = {t: i for i, t in enumerate(self.tickers)}
        return self.closes[[index[t] for t in tickers]]


@dataclass
class Sector:
    name: str
    tickers: list[str]
    out_subdir: str  # where the CLI writes this sector, relative to --out


@dataclass
class Workload:
    name: str
    command: str  # "pipeline" or "weights"
    shape: Shape
    sampler: str
    prices: Prices
    sectors: list[Sector]
    inputs: list[Path]
    universe: Path  # INI file, or the directory of INIs for --all

    @property
    def train(self) -> tuple[int, int]:
        return 0, self.shape.train_days

    def cli_args(self, out: Path) -> list[str]:
        args = [self.command, "--universe", str(self.universe), "--out", str(out),
                "--samples", str(self.shape.samples), "--seed", str(DRAW_SEED),
                "--sampler", self.sampler, "--workers", "1"]
        if self.command == "pipeline":
            args += ["--jobs", "1"]
            if len(self.sectors) > 1:
                args.append("--all")
        return args


def slug(sector: str) -> str:
    """The CLI's per-sector output directory name under ``pipeline --all``."""
    return re.sub(r"[^A-Za-z0-9]+", "_", sector).strip("_").lower() or "sector"


def weekdays(start: date, count: int) -> list[date]:
    days: list[date] = []
    d = start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def _walk(rng: np.random.Generator, n: int, days: int) -> tuple[np.ndarray, np.ndarray]:
    """Random-walk closes as 4-decimal text and as the floats it parses to."""
    drift = rng.uniform(-2e-4, 8e-4, (n, 1))
    vol = rng.uniform(0.01, 0.025, (n, 1))
    start = rng.uniform(20.0, 500.0, (n, 1))
    closes = start * np.cumprod(1.0 + drift + vol * rng.standard_normal((n, days)), axis=1)
    text = np.char.mod("%.4f", closes)
    return text, text.astype(float)


def _make_prices(rng, tickers, shape: Shape, late: list[int], suspended: list[int]):
    n, days = len(tickers), shape.train_days + shape.test_days
    text, values = _walk(rng, n, days)
    observed = rng.random((n, days)) >= shape.gap_rate
    # a late listing: no quotes for the first 40% of the training window,
    # strictly over the 30% screen
    for i in late:
        observed[i, : int(0.4 * shape.train_days)] = False
    # suspended at the start of the test window (the look-ahead repro)
    for i in suspended:
        observed[i, shape.train_days: shape.train_days + shape.suspended_days] = False
    closes = np.where(observed, values, np.nan)
    return Prices(list(tickers), weekdays(date(2015, 1, 5), days), closes), text, observed


def _write_long(path: Path, prices: Prices, text, observed) -> None:
    lines = ["date,ticker,close"]
    for j, d in enumerate(prices.dates):
        iso = d.isoformat()
        lines.extend(f"{iso},{t},{text[i, j]}"
                     for i, t in enumerate(prices.tickers) if observed[i, j])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_wide(path: Path, prices: Prices, text, observed) -> None:
    cells = np.where(observed, text, "")
    lines = ["date," + ",".join(prices.tickers)]
    lines.extend(d.isoformat() + "," + ",".join(cells[:, j])
                 for j, d in enumerate(prices.dates))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_ini(path: Path, sector: str, tickers: list[str], prices: Prices,
               shape: Shape, csv_name: str) -> None:
    d = prices.dates
    train = f"{d[0]}:{d[shape.train_days - 1]}"
    test = f"{d[shape.train_days]}:{d[shape.train_days + shape.test_days - 1]}"
    path.write_text(
        "[universe]\n"
        f"sector = {sector}\n"
        f"tickers = {' '.join(tickers)}\n"
        f"train = {train}\n"
        f"test = {test}\n"
        f"prices = {csv_name}\n",
        encoding="utf-8",
    )


def generate(name: str, seed: int, size: str, directory: Path) -> Workload:
    """Write workload `name` for `seed` under `directory` and describe it."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}, known: {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    shape = SHAPES[(name, size)]
    rng = np.random.default_rng([seed, _TAGS[name]])
    directory.mkdir(parents=True, exist_ok=True)

    if name == "market":
        names = list(MARKET_SECTORS)
        stems = [re.sub("[^A-Z]", "", s.upper())[:4] for s in names]
        groups = [[f"{stem}{k}" for k in range(shape.tickers)] for stem in stems]
        tickers = [t for g in groups for t in g]
        late = [int(rng.integers(len(tickers)))]
        prices, text, observed = _make_prices(rng, tickers, shape, late, [])
        csv_path = directory / "market.csv"
        _write_wide(csv_path, prices, text, observed)
        inputs = [csv_path]
        for sector, group in zip(names, groups):
            ini = directory / f"{slug(sector)}.ini"
            _write_ini(ini, sector, group, prices, shape, csv_path.name)
            inputs.append(ini)
        sectors = [Sector(s, g, slug(s)) for s, g in zip(names, groups)]
        return Workload(name, "pipeline", shape, "uniform", prices, sectors,
                        inputs, directory)

    prefix = "S" if name == "sector" else "C"
    tickers = [f"{prefix}{k:02d}" for k in range(shape.tickers)]
    picks = rng.permutation(shape.tickers)
    late, suspended = ([int(picks[0])], [int(picks[1])]) if name == "sector" else ([], [])
    prices, text, observed = _make_prices(rng, tickers, shape, late, suspended)
    csv_path = directory / f"{name}.csv"
    _write_long(csv_path, prices, text, observed)
    ini = directory / f"{name}.ini"
    sector = "Synthetic Sector" if name == "sector" else "Synthetic Cloud"
    _write_ini(ini, sector, tickers, prices, shape, csv_path.name)
    command, sampler = ("pipeline", "uniform") if name == "sector" else ("weights", "dirichlet")
    return Workload(name, command, shape, sampler, prices,
                    [Sector(sector, tickers, "")], [csv_path, ini], ini)
