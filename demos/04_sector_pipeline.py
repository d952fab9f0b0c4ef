"""Full sector pipeline on synthetic data, including an exclusion.

Builds two sector universes on disk (price CSV + INI each), one of them
holding a late-listed ticker that the missing-data policy drops, runs
the complete per-sector pipeline, and rolls both results into the
cross-sector summary. Everything the CLI would do, driven as a library.
"""

import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from sectorfolio import PricePanel, parse_price_file, read_universe_config, write_long_csv
from sectorfolio.cli import RunConfig, cmd_pipeline, cmd_summary

TRAIN_DAYS = 120
TEST_DAYS = 25
SEED = 3


def weekday_dates(start, count):
    days, d = [], start
    while len(days) < count:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def build_sector(root, stem, sector, tickers, seed, late_listing=None):
    rng = np.random.default_rng(seed)
    n = TRAIN_DAYS + TEST_DAYS
    steps = rng.normal(0.0004, 0.016, size=(len(tickers), n))
    closes = rng.uniform(40, 900, len(tickers))[:, None] * np.cumprod(1 + steps, axis=1)
    if late_listing:
        # no observations until 85% of the training window has passed
        closes[tickers.index(late_listing), : int(TRAIN_DAYS * 0.85)] = np.nan
    dates = weekday_dates(date(2021, 1, 4), n)
    panel = PricePanel(list(tickers), dates, closes)
    write_long_csv(panel, root / f"{stem}.csv")

    ini = root / f"{stem}.ini"
    ini.write_text(
        "[universe]\n"
        f"sector = {sector}\n"
        f"tickers = {' '.join(tickers)}\n"
        f"train = {dates[0]}:{dates[TRAIN_DAYS - 1]}\n"
        f"test = {dates[TRAIN_DAYS]}:{dates[-1]}\n"
        f"prices = {stem}.csv\n",
        encoding="utf-8",
    )
    return ini


def run_sector(ini, out_dir):
    universe = read_universe_config(ini)
    config = RunConfig(
        universe=universe,
        prices=ini.parent / universe.prices,
        out_dir=out_dir,
        samples=10_000,
        seed=SEED,
    )
    return cmd_pipeline(config, parse_price_file(config.prices))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        run_demo(Path(tmp))


def run_demo(root):
    print(f"working under {root}, removed on exit\n")

    steady = build_sector(
        root, "steady", "Steady Sector",
        ["ANCHOR", "BALLAST", "COMPASS", "DERRICK", "ENSIGN"], seed=21,
    )
    patchy = build_sector(
        root, "patchy", "Patchy Sector",
        ["FATHOM", "GALLEY", "HARBOR", "INLET", "JETSAM"], seed=22,
        late_listing="JETSAM",
    )

    for ini in (steady, patchy):
        out = root / ini.stem
        print(f"--- pipeline: {ini.name} ---")
        run_sector(ini, out)
        exclusions = out / "exclusions.log"
        if exclusions.exists():
            print(f"excluded: {exclusions.read_text(encoding='utf-8').splitlines()[1:]}")
        print()

    print("--- summary ---")
    summary = cmd_summary(
        [root / ini.stem / "sector_result.csv" for ini in (steady, patchy)], root
    )
    print(summary.read_text(encoding="utf-8"))


if __name__ == "__main__":
    main()
