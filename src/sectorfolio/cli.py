"""Command-line driver for the sector pipeline.

Subcommands:

* ``stats``     per-ticker training stats -> stats.csv
* ``weights``   EWP, MRP, and ORP books -> weights.csv
* ``frontier``  the sampled cloud -> frontier.csv
* ``backtest``  buy-and-hold one book over the test window -> backtest_<column>.csv
* ``pipeline``  all of the above plus both backtests and the sector
  result; a failed sector changes no file. ``--all`` iterates a directory
  of universe configs, runs the rest after a failure, and adds a
  summary.csv of the sectors that finished
* ``summary``   combine sector_result.csv files -> summary.csv
* ``fetch``     download close histories -> canonical long CSV

The five sector commands run through one runner. It checks each option
once, before any file is read, so a bad one is one ``sectorfolio
<command>: <reason>`` line; then it parses each price file once, hands the
panel to the command's ``cmd_*`` function and reports a failed sector as
one ``sectorfolio <command>: <sector>: <reason>`` line. A command writes each
of its files to its own temporary, renames them into place one after
another once all are written, then prints one ``wrote <path>`` line per
file, and exits 0 only when every requested output was written.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from datetime import date
from functools import partial
from pathlib import Path
from typing import IO, NamedTuple

from ._files import csv_writer, staged
from .backtest import MODES, _check_capital, backtest_from_panel, write_backtest_csv
from .errors import AnalyticsError, EmptySummaryError, EmptyUniverseError
from .frontier import (
    SAMPLERS,
    FrontierCloud,
    _check_samples,
    _check_seed,
    export_frontier,
    min_risk_portfolio,
    optimum_risk_portfolio,
    sample_frontier,
)
from .market_data import (
    PricePanel,
    UniverseConfig,
    _check_threshold,
    _check_windows,
    apply_missing_data_policy,
    fill_gaps,
    load_price_panel,
    parse_iso_date,
    parse_price_file,
    parse_window,
    read_universe_config,
    write_long_csv,
)
from .portfolio import WeightVector, _risk_free, equal_weights
from .reports import (
    SectorResult,
    read_sector_results,
    read_weights_csv,
    write_sector_result,
    write_stats_csv,
    write_summary,
    write_weights_csv,
)
from .return_stats import AssetStats, asset_stats, covariance_matrix

__all__ = [
    "RunConfig",
    "cmd_stats",
    "cmd_weights",
    "cmd_frontier",
    "cmd_backtest",
    "cmd_pipeline",
    "cmd_summary",
    "main",
]

# errors that end a command (or one sector of `pipeline`) in one stderr line
_USER_ERRORS = (AnalyticsError, MemoryError, OSError, ValueError, ZeroDivisionError)


class RunConfig(NamedTuple):
    """Everything one sector run needs, fixed once built. Its windows are the
    universe's own (`--train`/`--test` replace them there, and `UniverseConfig`
    checks their order). The command line checks samples, seed, rf, threshold
    and capital once, before any file is read; the library calls that use them
    check them again, before any write. The command-line options take their
    defaults from `RunConfig._field_defaults`."""

    universe: UniverseConfig
    prices: Path
    out_dir: Path
    samples: int = 10_000
    seed: int = 0
    rf: float = 0.01
    sampler: str = "uniform"
    threshold: float = 0.30
    capital: float = 100_000.0


def _train(
    config: RunConfig, prices: PricePanel
) -> tuple[PricePanel, list[tuple[str, float]], list[AssetStats]]:
    """The training panel after the missing-data policy, its exclusions and its stats."""
    raw = load_price_panel(prices, config.universe, config.universe.train_window)
    panel, excluded = apply_missing_data_policy(raw, config.threshold)
    return panel, excluded, asset_stats(panel)


def _cloud(config: RunConfig, panel: PricePanel, stats: list[AssetStats]) -> FrontierCloud:
    mu = [s.annual_return for s in stats]  # panel order, the covariance's order
    cov = covariance_matrix(panel)
    return sample_frontier(mu, cov, config.samples, config.seed, config.rf, sampler=config.sampler)


def _books(panel: PricePanel, cloud: FrontierCloud) -> tuple[WeightVector, WeightVector, WeightVector]:
    """The EWP, MRP and ORP books of one training run."""
    return (
        equal_weights(panel.tickers),
        min_risk_portfolio(cloud).weights,
        optimum_risk_portfolio(cloud).weights,
    )


def _exclusions_csv(excluded: list[tuple[str, float]], dest: IO[str]) -> None:
    with csv_writer(dest, ["ticker", "missing_fraction"]) as (_, writer):
        writer.writerows([ticker, f"{fraction:.4f}"] for ticker, fraction in excluded)


def _write_files(out_dir: Path, excluded: list[tuple[str, float]] | None, *files: tuple) -> Path:
    """Write each ``(name, write, *args)`` of `files`, then exclusions.log when a
    ticker was excluded, under `out_dir`; return the first path. ``write(*args,
    stream)`` writes each to its own `staged` stream, so a failure while they
    are written (a directory in a file's place included) puts none in place.
    Then an empty `excluded` removes an old exclusions.log (None, for a backtest,
    which trains nothing, leaves it alone); last come the ``wrote <path>`` lines.
    """
    files += (("exclusions.log", _exclusions_csv, excluded),) if excluded else ()
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name, *_ in files]
    with staged(*paths) as streams:
        for (_, write, *args), stream in zip(files, streams):
            write(*args, stream)
    if excluded == []:
        (out_dir / "exclusions.log").unlink(missing_ok=True)
    print(*(f"wrote {path}" for path in paths), sep="\n")
    return paths[0]


def cmd_stats(config: RunConfig, prices: PricePanel) -> Path:
    """Write training-window per-ticker stats; returns the file path."""
    _, excluded, stats = _train(config, prices)
    return _write_files(config.out_dir, excluded, ("stats.csv", write_stats_csv, stats))


def cmd_weights(config: RunConfig, prices: PricePanel) -> Path:
    """Write the EWP, MRP, and ORP books for one sector."""
    panel, excluded, stats = _train(config, prices)
    books = _books(panel, _cloud(config, panel, stats))
    return _write_files(config.out_dir, excluded, ("weights.csv", write_weights_csv, *books))


def cmd_frontier(config: RunConfig, prices: PricePanel) -> Path:
    """Write the sampled frontier cloud with MRP/ORP flags."""
    panel, excluded, stats = _train(config, prices)
    cloud = _cloud(config, panel, stats)
    return _write_files(config.out_dir, excluded, ("frontier.csv", export_frontier, cloud))


def _test_panel(config: RunConfig, prices: PricePanel, tickers: list[str]) -> PricePanel:
    """A book's complete test-window closes, from the first test date on
    which a book ticker trades. A leading gap carries the ticker's last
    close on or before the test start, taken from the full-span `prices`,
    never a later quote. A ticker without such a close, or without any
    test quote, fails the sector.
    """
    window = config.universe.test_window
    panel = load_price_panel(prices, config.universe, window).window(tickers)
    return fill_gaps(panel, prices.last_closes(tickers, window[0]))


def cmd_backtest(
    config: RunConfig,
    prices: PricePanel,
    weights_file: str | Path,
    column: str = "orp",
    mode: str = "simplex",
) -> Path:
    """Backtest one book from a weights file over the test window.

    Fixed-amount mode books capital / (configured universe size) per ticker.
    """
    books = read_weights_csv(weights_file)
    if column not in books:
        raise ValueError(
            f"{weights_file}: no {column!r} column, has: {', '.join(books)}"
        )
    book = books[column]
    outside = [t for t in book.tickers if t not in config.universe.tickers]
    if outside:
        raise ValueError(
            f"{weights_file}: {column} book holds tickers outside the universe: "
            f"{', '.join(outside)}"
        )
    test_panel = _test_panel(config, prices, book.tickers)
    report = backtest_from_panel(book, test_panel, config.capital, mode, len(config.universe.tickers))
    return _write_files(config.out_dir, None, (f"backtest_{column}.csv", write_backtest_csv, report))


def cmd_pipeline(config: RunConfig, prices: PricePanel) -> SectorResult:
    """Run one sector end to end and write all report files.

    Training: stats, covariance, frontier cloud, candidate books.
    Test: a fixed-amount-per-stock equal-weight backtest (one ticket of
    capital/n per configured ticker, so exclusions leave cash idle)
    against a full-capital ORP backtest. `prices` is `config.prices`
    parsed (`parse_price_file`); both windows are cut from it, and every
    result is computed before `_write_files`, so a failure changes no file.
    """
    panel, excluded, stats = _train(config, prices)
    cloud = _cloud(config, panel, stats)
    ewp, mrp, orp = _books(panel, cloud)
    test_panel = _test_panel(config, prices, panel.tickers)
    ewp_report = backtest_from_panel(
        ewp, test_panel, config.capital,
        mode="fixed-amount-per-stock", nominal_universe_size=len(config.universe.tickers),
    )
    orp_report = backtest_from_panel(orp, test_panel, config.capital)
    result = SectorResult(
        config.universe.sector, ewp_report.holding_return, orp_report.holding_return
    )

    _write_files(
        config.out_dir, excluded,
        ("stats.csv", write_stats_csv, stats),
        ("weights.csv", write_weights_csv, ewp, mrp, orp),
        ("frontier.csv", export_frontier, cloud),
        ("backtest_ewp.csv", write_backtest_csv, ewp_report),
        ("backtest_orp.csv", write_backtest_csv, orp_report),
        ("sector_result.csv", write_sector_result, result),
    )
    print(
        f"{result.sector}: EWP {result.ewp_test_return * 100.0:.2f}% vs "
        f"ORP {result.orp_test_return * 100.0:.2f}% -> {result.winner}"
    )
    return result


def cmd_summary(result_files: list[str | Path], out_dir: Path) -> Path:
    """Combine sector result files into summary.csv with win counts."""
    results = read_sector_results(*result_files)
    if not results:
        raise EmptySummaryError("no sector results in the given files")
    return _write_files(out_dir, None, ("summary.csv", write_summary, results))


def _slug(sector: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", sector).strip("_").lower() or "sector"


def _resolve_prices(prices_arg: str | None, universe: UniverseConfig, config_path: Path) -> Path:
    if prices_arg:
        p = Path(prices_arg)
        # a directory of price files is matched by config file stem
        return p / f"{config_path.stem}.csv" if p.is_dir() else p
    if universe.prices:
        return config_path.parent / universe.prices
    raise ValueError(
        f"no price source: pass --prices or set 'prices' in {config_path}"
    )


def _run_options(args: argparse.Namespace) -> dict[str, object]:
    """The RunConfig fields that `args` sets, built and checked once for every
    universe file, before any file is read.

    A subcommand that lacks an option keeps RunConfig's default for it. The
    `--train`/`--test` pair is checked on its own here; a window that clashes
    only with a universe file's other window is found by `UniverseConfig`.
    """
    given = {k: v for k, v in vars(args).items() if k in RunConfig._field_defaults}
    for name, check in (("rf", _risk_free), ("samples", _check_samples), ("seed", _check_seed),
                        ("threshold", _check_threshold), ("capital", _check_capital)):
        if name in given:
            check(given[name])
    _check_windows(args.train, args.test)
    return given


def _window_arg(text: str) -> tuple[date, date]:
    try:
        return parse_window(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _date_arg(text: str) -> date:
    try:
        return parse_iso_date(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an ISO date, got {text!r}") from None


def _ignored_count_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectorfolio", description="Sector portfolio analytics pipeline."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = RunConfig._field_defaults
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--universe", required=True, help="universe INI file (directory with pipeline --all)")
    run.add_argument("--prices", help="price CSV, or a directory of <config-stem>.csv files")
    run.add_argument("--train", type=_window_arg, help="training window START:END, default from the universe file")
    run.add_argument("--test", type=_window_arg, help="test window START:END, default from the universe file")
    run.add_argument("--threshold", type=float, default=defaults["threshold"],
                     help="missing-data exclusion threshold (default %(default).2f)")
    run.add_argument("--out", default=".", help="output directory (default .)")

    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--samples", type=int, default=defaults["samples"], help="cloud size (default %(default)s)")
    mc.add_argument("--seed", type=int, default=defaults["seed"], help="sampling seed (default %(default)s)")
    mc.add_argument("--rf", type=float, default=defaults["rf"], help="annual risk-free rate (default %(default)s)")
    mc.add_argument("--workers", type=_ignored_count_arg, help="ignored (must be >= 1); kept so older command lines run")
    mc.add_argument(
        "--sampler", choices=SAMPLERS, default=defaults["sampler"],
        help="uniform: iid uniforms over their sum, pulled toward 1/n; "
        "dirichlet: flat Dirichlet, uniform on the simplex (default %(default)s)",
    )

    money = argparse.ArgumentParser(add_help=False)
    money.add_argument("--capital", type=float, default=defaults["capital"],
                       help="capital to invest (default %(default)s)")

    p = sub.add_parser("stats", parents=[run], help="per-ticker training stats")
    p.set_defaults(handler=_handle_sector, cmd=cmd_stats)

    p = sub.add_parser("weights", parents=[run, mc], help="EWP/MRP/ORP books")
    p.set_defaults(handler=_handle_sector, cmd=cmd_weights)

    p = sub.add_parser("frontier", parents=[run, mc], help="sampled frontier cloud")
    p.set_defaults(handler=_handle_sector, cmd=cmd_frontier)

    p = sub.add_parser("backtest", parents=[run, money], help="backtest one book over the test window")
    p.add_argument("--weights", required=True, help="weights.csv from the weights subcommand")
    p.add_argument("--column", choices=("ewp", "mrp", "orp"), default="orp")
    p.add_argument("--mode", choices=MODES, default="simplex",
                   help="fixed-amount-per-stock books capital / (configured universe size) "
                   "per ticker (default %(default)s)")
    p.set_defaults(handler=_handle_sector, cmd=cmd_backtest)

    p = sub.add_parser("pipeline", parents=[run, mc, money], help="full sector run")
    p.add_argument("--all", action="store_true", help="--universe is a directory of universe INI files")
    p.add_argument("--jobs", type=_ignored_count_arg, help="ignored (must be >= 1); kept so older command lines run")
    p.set_defaults(handler=_handle_sector, cmd=cmd_pipeline)

    p = sub.add_parser("summary", help="combine sector results")
    p.add_argument("results", nargs="+", help="sector_result.csv files")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(handler=_handle_summary)

    p = sub.add_parser("fetch", help="download close histories")
    p.add_argument("--universe", help="take tickers and window from this universe file")
    p.add_argument("--tickers", nargs="+", help="explicit ticker list")
    p.add_argument("--start", type=_date_arg, help="first date (default: training window start)")
    p.add_argument("--end", type=_date_arg, help="last date (default: test window end)")
    p.add_argument("--out", required=True, help="output CSV path (long layout)")
    p.add_argument("--url-template", help="CSV endpoint with {symbol}/{start}/{end} fields")
    p.add_argument("--suffix", default="", help="symbol suffix, e.g. an exchange qualifier")
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(handler=_handle_fetch)

    return parser


def _handle_sector(args: argparse.Namespace) -> int:
    """A sector command on `--universe`, or under ``pipeline --all`` on every
    `*.ini` of that directory in sorted order, each sector in its slug
    directory, then summary.csv of the sectors that finished.

    An INI that cannot be read is one ``sectorfolio <command>: <message>``
    line and a failed sector one ``sectorfolio <command>: <sector>: <reason>``
    line; the rest still run. `panels` holds each price file's panel, or the
    error its one parse raised, so sectors sharing a file parse it once. A
    closed stdout (BrokenPipeError) is raised, as no later sector could print
    either.
    """
    options = _run_options(args)
    run = args.cmd
    if run is cmd_backtest:
        run = partial(cmd_backtest, weights_file=args.weights, column=args.column, mode=args.mode)
    every = getattr(args, "all", False)
    config_paths = sorted(Path(args.universe).glob("*.ini")) if every else [Path(args.universe)]
    if not config_paths:
        raise EmptyUniverseError(f"no universe configs (*.ini) in {args.universe}")
    out = Path(args.out)
    configs: list[RunConfig] = []
    claimed: dict[Path, Path] = {}  # output directory -> the INI that claimed it
    for path in config_paths:
        try:
            read = read_universe_config(path)
            universe = UniverseConfig(
                read.sector, read.tickers, args.train or read.train_window,
                args.test or read.test_window, read.prices,
            )
            prices = _resolve_prices(args.prices, universe, path)
        except _USER_ERRORS as exc:
            print(f"sectorfolio {args.command}: {exc}", file=sys.stderr)
            continue
        out_dir = out / _slug(universe.sector) if every else out
        first = claimed.setdefault(out_dir, path)
        if first != path:
            raise ValueError(f"{first} and {path} both write to {out_dir}")
        configs.append(RunConfig(universe, prices, out_dir, **options))
    panels: dict[Path, PricePanel | Exception] = {}
    results = []
    for config in configs:
        try:
            if config.prices not in panels:
                try:
                    panels[config.prices] = parse_price_file(config.prices)
                except _USER_ERRORS as exc:
                    panels[config.prices] = exc
            parsed = panels[config.prices]
            if isinstance(parsed, Exception):
                raise parsed
            results.append(run(config, parsed))
        except BrokenPipeError:
            raise
        except _USER_ERRORS as exc:
            print(f"sectorfolio {args.command}: {config.universe.sector}: {exc}", file=sys.stderr)
    if every and results:
        _write_files(out, None, ("summary.csv", write_summary, results))
    return 0 if len(results) == len(config_paths) else 1


def _handle_summary(args: argparse.Namespace) -> int:
    cmd_summary(args.results, Path(args.out))
    return 0


def _handle_fetch(args: argparse.Namespace) -> int:
    # imported here so offline use of every other command never touches it
    from .fetch import DEFAULT_URL_TEMPLATE, fetch_history

    if args.universe:
        universe = read_universe_config(args.universe)
        tickers = args.tickers or universe.tickers
        start = args.start or universe.train_window[0]
        end = args.end or universe.test_window[1]
    else:
        if not (args.tickers and args.start and args.end):
            raise ValueError("fetch needs --universe or all of --tickers/--start/--end")
        tickers, start, end = args.tickers, args.start, args.end
    panel = fetch_history(
        tickers, start, end,
        url_template=args.url_template or DEFAULT_URL_TEMPLATE,
        suffix=args.suffix, timeout=args.timeout,
    )
    _write_files(Path(args.out).parent, None, (Path(args.out).name, write_long_csv, panel))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # run as the program: numpy's import heap lives until exit anyway,
        # and frozen it is walked by no later collection
        gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _USER_ERRORS as exc:
        print(f"sectorfolio {args.command}: {exc}", file=sys.stderr)
        return 1


def _program() -> None:
    """The program: ``sectorfolio`` and ``python -m sectorfolio.cli``.

    Runs `main()`, flushes stdout and stderr and ends the process with its
    code through `os._exit`, which skips the interpreter's teardown: every
    output file is closed by then and the process holds nothing else to
    release. argparse's exit (``--help``, a usage error) ends the same way,
    as does a flush on a closed pipe, with code 1 if `main` gave 0. Another
    failed flush, or an exception `main` does not handle, exits normally.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(code or 1)
    except (AttributeError, OSError, ValueError):  # no stream, or a closed or broken one
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    _program()
