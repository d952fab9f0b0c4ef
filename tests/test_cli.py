"""The sectorfolio command-line interface, run in-process."""

import csv
import errno
import filecmp
import gc
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from sectorfolio import (
    PricePanel,
    backtest_from_panel,
    fill_gaps,
    load_price_panel,
    parse_price_file,
    read_frontier_csv,
    read_sector_results,
    read_universe_config,
    read_weights_csv,
    write_long_csv,
    write_sector_result,
    SAMPLERS,
    EmptyCloudError,
    SectorResult,
)
import sectorfolio
from sectorfolio import cli
from sectorfolio._files import csv_writer
from sectorfolio.cli import main

from helpers import random_panel, write_universe

TICKERS = ["AAA", "BBB", "CCC"]


def build_sector(
    tmp_path,
    sector="Demo",
    tickers=TICKERS,
    seed=0,
    train_days=60,
    test_days=15,
    stem="demo",
    sparse_head=None,
):
    """Write a universe INI plus matching long price CSV under tmp_path.

    `sparse_head` blanks a ticker's observations before a given column,
    simulating a late listing: ("TICKER", first_present_index).
    """
    panel = random_panel(list(tickers), train_days + test_days, seed=seed,
                         start=date(2021, 1, 4))
    closes = panel.closes.copy()
    if sparse_head is not None:
        ticker, first = sparse_head
        closes[list(tickers).index(ticker), :first] = np.nan
        panel = PricePanel(list(tickers), panel.dates, closes)
    train = (panel.dates[0], panel.dates[train_days - 1])
    test = (panel.dates[train_days], panel.dates[-1])
    prices = tmp_path / f"{stem}.csv"
    write_long_csv(panel, prices)
    ini = write_universe(
        tmp_path / f"{stem}.ini", sector, list(tickers), train, test,
        prices=prices.name,
    )
    return ini, prices


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_stats_writes_per_ticker_table(tmp_path, capsys):
    ini, _ = build_sector(tmp_path)
    out = tmp_path / "out"
    assert run_cli("stats", "--universe", ini, "--out", out) == 0
    lines = (out / "stats.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "ticker,annual_return_pct,annual_risk_pct"
    assert [line.split(",")[0] for line in lines[1:]] == TICKERS
    assert f"wrote {out / 'stats.csv'}" in capsys.readouterr().out


def test_weights_then_backtest_roundtrip(tmp_path):
    ini, prices = build_sector(tmp_path, seed=4)
    out = tmp_path / "out"
    assert run_cli(
        "weights", "--universe", ini, "--out", out, "--samples", 500, "--seed", 9
    ) == 0
    books = read_weights_csv(out / "weights.csv")
    assert set(books) == {"ewp", "mrp", "orp"}

    assert run_cli(
        "backtest", "--universe", ini, "--out", out,
        "--weights", out / "weights.csv", "--column", "orp",
    ) == 0
    report_lines = (out / "backtest_orp.csv").read_text(encoding="utf-8").splitlines()
    assert report_lines[-1].startswith("TOTAL,")

    # the CLI figure must match the library run on the same book
    universe = read_universe_config(ini)
    test_panel = fill_gaps(
        load_price_panel(prices, universe, universe.test_window).restrict(
            books["orp"].tickers
        )
    )
    expected = backtest_from_panel(books["orp"], test_panel, 100_000.0)
    total = report_lines[-1].split(",")
    assert float(total[-1]) == pytest.approx(expected.holding_return * 100, abs=0.005)


def test_backtest_rejects_unknown_column(tmp_path, capsys):
    ini, _ = build_sector(tmp_path)
    out = tmp_path / "out"
    assert run_cli(
        "weights", "--universe", ini, "--out", out, "--samples", 200
    ) == 0
    (out / "tweaked.csv").write_text(
        (out / "weights.csv").read_text(encoding="utf-8").replace("ewp,mrp,orp", "ewp,mrp,best"),
        encoding="utf-8",
    )
    assert run_cli(
        "backtest", "--universe", ini, "--out", out,
        "--weights", out / "tweaked.csv", "--column", "orp",
    ) == 1
    assert "orp" in capsys.readouterr().err


def test_frontier_identical_across_worker_counts(tmp_path):
    ini, _ = build_sector(tmp_path, seed=11)
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    for out, workers in ((out1, 1), (out8, 8)):
        assert run_cli(
            "frontier", "--universe", ini, "--out", out,
            "--samples", 1500, "--seed", 7, "--workers", workers,
        ) == 0
    assert filecmp.cmp(out1 / "frontier.csv", out8 / "frontier.csv", shallow=False)


@pytest.mark.parametrize("flag", ["--workers", "--jobs"])
def test_ignored_concurrency_flags_reject_zero(tmp_path, capsys, flag):
    ini, _ = build_sector(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("pipeline", "--universe", ini, "--out", tmp_path / "out", flag, 0)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_a_negative_seed_fails_in_one_line_naming_it(tmp_path, capsys):
    ini, _ = build_sector(tmp_path)
    out = tmp_path / "out"
    assert run_cli("weights", "--universe", ini, "--out", out, "--seed", -1) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "sectorfolio weights: seed must be an integer in [0, 2**128), got -1\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "command", ["stats", "weights", "frontier", "backtest", "pipeline", "summary", "fetch"])
def test_every_subcommand_renders_its_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_window_flag_takes_only_yyyy_mm_dd(tmp_path, capsys):
    ini, _ = build_sector(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("stats", "--universe", ini, "--out", tmp_path / "out",
                "--train", "20170101:20211231")
    assert exc.value.code == 2
    assert "--train" in capsys.readouterr().err


def test_pipeline_writes_all_reports(tmp_path, capsys):
    ini, _ = build_sector(tmp_path, sector="Demo Sector", seed=2)
    out = tmp_path / "out"
    assert run_cli(
        "pipeline", "--universe", ini, "--out", out, "--samples", 500, "--seed", 1
    ) == 0
    for name in (
        "stats.csv", "weights.csv", "frontier.csv",
        "backtest_ewp.csv", "backtest_orp.csv", "sector_result.csv",
    ):
        assert (out / name).exists(), name
    tickers, rows = read_frontier_csv(out / "frontier.csv")
    assert tickers == TICKERS and len(rows) == 500
    (result,) = read_sector_results(out / "sector_result.csv")
    assert result.sector == "Demo Sector"
    stdout = capsys.readouterr().out
    assert "Demo Sector: EWP " in stdout and "-> " in stdout


def test_pipeline_reruns_are_byte_identical(tmp_path):
    ini, _ = build_sector(tmp_path, seed=6)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(
            "pipeline", "--universe", ini, "--out", out, "--samples", 400, "--seed", 5
        ) == 0
    for name in ("stats.csv", "weights.csv", "frontier.csv", "sector_result.csv"):
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_pipeline_all_builds_summary(tmp_path):
    data = tmp_path / "configs"
    data.mkdir()
    build_sector(data, sector="Alpha Sector", seed=1, stem="alpha")
    build_sector(data, sector="Beta Sector", seed=2, stem="beta")
    out = tmp_path / "out"
    assert run_cli(
        "pipeline", "--universe", data, "--all", "--out", out,
        "--samples", 300, "--seed", 3, "--jobs", 2,
    ) == 0
    assert (out / "alpha_sector" / "sector_result.csv").exists()
    assert (out / "beta_sector" / "sector_result.csv").exists()
    results = read_sector_results(out / "summary.csv")
    assert [r.sector for r in results] == ["Alpha Sector", "Beta Sector"]
    footer = (out / "summary.csv").read_text(encoding="utf-8").splitlines()[-1]
    assert footer.startswith("# EWP wins: ")


def test_pipeline_all_rejects_two_sectors_sharing_an_output_directory(tmp_path, capsys):
    data = tmp_path / "configs"
    data.mkdir()
    build_sector(data, sector="Oil & Gas", seed=1, stem="a")
    build_sector(data, sector="Oil-Gas", seed=2, stem="b")
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", data, "--all", "--out", out,
                   "--samples", 100) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert str(data / "a.ini") in err and str(data / "b.ini") in err
    assert not out.exists()


def test_pipeline_all_requires_configs(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert run_cli("pipeline", "--universe", empty, "--all", "--out", tmp_path) == 1
    assert "no universe configs" in capsys.readouterr().err


def test_summary_from_result_files(tmp_path, capsys):
    r1, r2 = tmp_path / "metal.csv", tmp_path / "it.csv"
    write_sector_result(SectorResult("Metal", 0.1438, 0.4197), r1)
    write_sector_result(SectorResult("IT", -0.3209, -0.3116), r2)
    out = tmp_path / "out"
    assert run_cli("summary", r1, r2, "--out", out) == 0
    results = read_sector_results(out / "summary.csv")
    assert [r.winner for r in results] == ["ORP", "ORP"]
    assert (out / "summary.csv").read_text(encoding="utf-8").splitlines()[-1] == (
        "# EWP wins: 0, ORP wins: 2"
    )


def test_summary_of_files_without_a_result_writes_nothing(tmp_path, capsys):
    empty = tmp_path / "r.csv"
    empty.write_text("sector,ewp_test_return_pct,orp_test_return_pct,winner\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("summary", empty, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == "sectorfolio summary: no sector results in the given files\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "names, message",
    [
        (["r3"], "{r3}: line 4: sector 'Auto' repeats line 2"),
        (["r1", "r2"], "{r2}: line 3: sector 'Auto' repeats {r1} line 2"),
        (["r1", "r1"], "{r1}: line 2: sector 'Auto' repeats {r1} line 2"),
    ],
    ids=["in-one-file", "across-files", "one-file-twice"],
)
def test_summary_rejects_a_sector_read_twice(tmp_path, capsys, names, message):
    head = "sector,ewp_test_return_pct,orp_test_return_pct,winner\n"
    auto, it = "Auto,1.00,2.00,ORP\n", "IT,3.00,1.00,EWP\n"
    paths = {name: tmp_path / f"{name}.csv" for name in ("r1", "r2", "r3")}
    for name, rows in zip(paths, [auto, it + auto, auto + it + auto]):
        paths[name].write_text(head + rows, encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("summary", *(paths[name] for name in names), "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == f"sectorfolio summary: {message.format(**paths)}\n"
    assert captured.out == ""
    assert not out.exists()


def test_summary_reports_an_over_long_field_in_one_line(tmp_path):
    bad = tmp_path / "bad.csv"
    field = "x" * (csv.field_size_limit() + 1)
    bad.write_text(
        f"sector,ewp_test_return_pct,orp_test_return_pct,winner\n{field},1,2,ORP\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    src = str(Path(sectorfolio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "sectorfolio.cli", "summary", str(bad), "--out", str(out)],
        env=env, capture_output=True, encoding="utf-8", timeout=60,
    )
    assert run.returncode == 1
    assert run.stderr.startswith(f"sectorfolio summary: {bad}: line 2: ")
    assert run.stderr.count("\n") == 1
    assert run.stdout == ""
    assert not out.exists()


_FREEZE_PROBE = """
import gc, sys
from sectorfolio import cli
before = gc.get_freeze_count()
sys.argv = ["sectorfolio", "--help"]
try:
    cli.main()
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(before, gc.get_freeze_count())
"""


def test_the_program_freezes_its_import_heap():
    src = str(Path(sectorfolio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE], env=env, capture_output=True, encoding="utf-8",
        timeout=60, check=True,
    )
    before, after = map(int, run.stdout.split()[-2:])
    assert before == 0 and after > 0


_RANDOM_PROBE = """
import sys
from sectorfolio import cli
try:
    cli.main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 0, exc.code
print("numpy.random" in sys.modules)
"""


def test_only_a_command_that_draws_a_cloud_loads_numpy_random(tmp_path):
    # importing it is a fixed cost of every call that does; `--help` is the call
    # `bench/run.py` times as set-up
    ini, _ = build_sector(tmp_path)
    src = str(Path(sectorfolio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, loaded in [
        (["--help"], False),
        (["stats", "--universe", ini, "--out", tmp_path / "stats"], False),
        (["weights", "--universe", ini, "--out", tmp_path / "weights", "--samples", "50"], True),
    ]:
        run = subprocess.run(
            [sys.executable, "-c", _RANDOM_PROBE, *map(str, argv)], env=env, capture_output=True,
            encoding="utf-8", timeout=60, check=True,
        )
        assert run.stdout.splitlines()[-1] == str(loaded), argv[0]


def _program(*argv, stdout=subprocess.PIPE):
    """The program entry, ``python -m sectorfolio.cli``, in dev mode with every warning an error."""
    src = str(Path(sectorfolio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # stdout and stderr buffered, as on any pipe, so an exit that skipped a flush loses lines
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "sectorfolio.cli", *map(str, argv)],
        env=env, stdout=stdout, stderr=subprocess.PIPE, encoding="utf-8", timeout=120,
    )


def test_the_program_writes_what_main_writes_and_exits_with_its_code(tmp_path, capsys):
    ini, prices = build_sector(tmp_path, sector="Program Run")
    out, ref = tmp_path / "out", tmp_path / "ref"
    run = _program("pipeline", "--universe", ini, "--out", out, "--samples", 200)
    assert (run.returncode, run.stderr) == (0, "")
    assert run_cli("pipeline", "--universe", ini, "--out", ref, "--samples", 200) == 0
    assert run.stdout == capsys.readouterr().out.replace(str(ref), str(out))
    wrote = [Path(line.removeprefix("wrote "))
             for line in run.stdout.splitlines() if line.startswith("wrote ")]
    assert len(wrote) == 6
    assert sorted(wrote) == sorted(p for p in out.rglob("*") if p.is_file())
    # every file is complete: byte for byte what main() wrote in-process
    for path in wrote:
        assert path.read_bytes() == (ref / path.relative_to(out)).read_bytes(), path

    lines = prices.read_text(encoding="utf-8").splitlines(keepends=True)
    prices.write_text("".join(lines) + "2021-01-04,AAA,x\n", encoding="utf-8")
    run = _program("pipeline", "--universe", ini, "--out", tmp_path / "failed")
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (
        f"sectorfolio pipeline: Program Run: {prices}: line {len(lines) + 1}: "
        "bad close 'x' for AAA\n")

    run = _program("pipeline", "--help")
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("usage: sectorfolio pipeline ")

    run = _program("pipeline", "--out", out)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.endswith(
        "sectorfolio pipeline: error: the following arguments are required: --universe\n")


def test_the_program_ends_with_code_1_and_no_traceback_when_its_reader_is_gone(tmp_path):
    ini, _ = build_sector(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader left before the program started
    try:
        run = _program("pipeline", "--universe", ini, "--out", tmp_path / "out",
                       "--samples", 200, stdout=write_end)
    finally:
        os.close(write_end)
    assert run.returncode == 1
    assert "Exception ignored" not in run.stderr and "Traceback" not in run.stderr
    assert (tmp_path / "out" / "sector_result.csv").exists()


def test_main_given_its_arguments_leaves_the_collector_alone(tmp_path):
    ini, _ = build_sector(tmp_path)
    frozen = gc.get_freeze_count()
    assert run_cli("pipeline", "--universe", ini, "--out", tmp_path / "out") == 0
    assert gc.get_freeze_count() == frozen


def test_summary_names_the_file_and_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "r.csv"
    bad.write_bytes(b"sector,ewp_test_return_pct,orp_test_return_pct,winner\n"
                    b"M\xe9tal,1,2,ORP\n")
    out = tmp_path / "out"
    assert run_cli("summary", bad, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err == f"sectorfolio summary: {bad}: line 2: not valid UTF-8 (byte 0xe9)\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--samples", "0"), ("--threshold", "2")])
def test_pipeline_rejects_bad_samples_or_threshold_before_writing(tmp_path, capsys, flag):
    ini, _ = build_sector(tmp_path)
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, *flag) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sectorfolio pipeline: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("capital", ["nan", "inf", "-inf"])
def test_pipeline_rejects_capital_that_is_not_finite_before_writing(tmp_path, capsys, capital):
    ini, _ = build_sector(tmp_path, sector="Capital Sector")
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, f"--capital={capital}") == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "sectorfolio pipeline: capital must be positive and finite, "
        f"got {float(capital)}\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("option, error, reason", [
    ({"samples": 0}, EmptyCloudError, "n_samples must be at least 1, got 0"),
    ({"capital": float("nan")}, ValueError, "capital must be positive and finite, got nan"),
], ids=["samples", "capital"])
def test_cmd_pipeline_still_checks_a_bad_option_before_writing(tmp_path, option, error, reason):
    # the command line checks options first; a library caller has only these checks
    ini, prices = build_sector(tmp_path)
    config = cli.RunConfig(read_universe_config(ini), prices, tmp_path / "out", **option)
    with pytest.raises(error) as caught:
        cli.cmd_pipeline(config, parse_price_file(prices))
    assert str(caught.value) == reason
    assert not config.out_dir.exists()


def test_backtest_names_a_book_ticker_outside_the_universe(tmp_path, capsys):
    # CCC is in the price file but not in the universe
    ini, prices = build_sector(tmp_path, sector="Two Names")
    universe = read_universe_config(ini)
    write_universe(ini, "Two Names", ["AAA", "BBB"], universe.train_window,
                   universe.test_window, prices=prices.name)
    weights = tmp_path / "weights.csv"
    weights.write_text("ticker,ewp,mrp,orp\nAAA,0.5,0.5,0.4\nBBB,0.5,0.5,0.4\nCCC,0,0,0.2\n",
                       encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("backtest", "--universe", ini, "--out", out, "--weights", weights) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"sectorfolio backtest: Two Names: {weights}: orp book holds tickers outside the "
        "universe: CCC\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_missing_price_file_fails_cleanly(tmp_path, capsys):
    ini = write_universe(
        tmp_path / "u.ini", "X", ["AAA"],
        (date(2021, 1, 1), date(2021, 6, 30)), (date(2021, 7, 1), date(2021, 12, 31)),
        prices="absent.csv",
    )
    assert run_cli("stats", "--universe", ini, "--out", tmp_path) == 1
    assert "absent.csv" in capsys.readouterr().err


def test_price_source_must_be_configured_or_passed(tmp_path, capsys):
    ini = write_universe(
        tmp_path / "u.ini", "X", ["AAA"],
        (date(2021, 1, 1), date(2021, 6, 30)), (date(2021, 7, 1), date(2021, 12, 31)),
    )
    assert run_cli("stats", "--universe", ini, "--out", tmp_path) == 1
    assert "--prices" in capsys.readouterr().err


def test_prices_directory_resolved_by_config_stem(tmp_path):
    ini, _ = build_sector(tmp_path, stem="alpha")
    out = tmp_path / "out"
    assert run_cli(
        "stats", "--universe", ini, "--prices", tmp_path, "--out", out
    ) == 0
    assert (out / "stats.csv").exists()


def test_window_flags_override_universe(tmp_path):
    ini, prices = build_sector(tmp_path, train_days=60, test_days=15)
    universe = read_universe_config(ini)
    full = load_price_panel(prices, universe)
    narrow_start, narrow_end = full.dates[10], full.dates[40]
    out = tmp_path / "out"
    assert run_cli(
        "stats", "--universe", ini, "--out", out,
        "--train", f"{narrow_start}:{narrow_end}",
        "--test", f"{full.dates[41]}:{full.dates[-1]}",
    ) == 0
    assert (out / "stats.csv").exists()


def test_fetch_requires_enough_arguments(tmp_path, capsys):
    assert run_cli("fetch", "--tickers", "AAA", "--out", tmp_path / "x.csv") == 1
    assert "--tickers/--start/--end" in capsys.readouterr().err


def test_fetch_rejects_a_date_that_is_not_iso(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("fetch", "--tickers", "AAA", "--start", "2022/01/03", "--end", "2022-01-05",
                "--out", tmp_path / "x.csv")
    assert exc.value.code == 2
    assert "--start: expected an ISO date, got '2022/01/03'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def _quote_files(root, quotes):
    """One ``<symbol>.csv`` per ticker under root; returns a file URL template."""
    root.mkdir()
    for ticker, rows in quotes.items():
        lines = ["Date,Close", *(f"{d},{c}" for d, c in rows)]
        (root / f"{ticker.lower()}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"file://{root}/{{symbol}}.csv"


def test_fetch_writes_a_long_file_that_reads_back_as_the_fetched_panel(tmp_path, capsys):
    d1, d2, d3 = date(2022, 1, 3), date(2022, 1, 4), date(2022, 1, 5)
    template = _quote_files(tmp_path / "quotes", {
        "AAA": [(d1, 10.5), (d3, 11.25)],
        "BBB": [(d1, 20.0), (d2, 21.5), (d3, 19.75)],
    })
    out = tmp_path / "prices.csv"
    assert run_cli("fetch", "--tickers", "AAA", "BBB", "--start", d1, "--end", d3,
                   "--out", out, "--url-template", template) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out}\n"
    assert captured.err == ""
    panel = parse_price_file(out)
    assert panel.tickers == ["AAA", "BBB"]
    assert panel.dates == [d1, d2, d3]
    np.testing.assert_array_equal(panel.closes, [[10.5, np.nan, 11.25], [20.0, 21.5, 19.75]])
    # rows come date by date
    assert [line.split(",")[0] for line in out.read_text(encoding="utf-8").splitlines()[1:]] == [
        str(d1), str(d1), str(d2), str(d3), str(d3)]


def test_fetch_takes_tickers_and_window_from_a_universe_file(tmp_path, capsys):
    d1, d2, d3 = date(2022, 1, 3), date(2022, 1, 4), date(2022, 1, 5)
    quotes = tmp_path / "quotes"
    quotes.mkdir()
    # each URL names its window, so a request for any other window finds no file
    for name, start, end in (("aaa", d1, d3), ("bbb", d1, d3), ("bbb", d2, d2)):
        rows = [f"{d},{10 + d.day}" for d in (d1, d2, d3) if start <= d <= end]
        (quotes / f"{name}_{start:%Y%m%d}_{end:%Y%m%d}.csv").write_text(
            "\n".join(["Date,Close", *rows]) + "\n", encoding="utf-8")
    template = f"file://{quotes}/{{symbol}}_{{start}}_{{end}}.csv"
    ini = write_universe(tmp_path / "u.ini", "X", ["AAA", "BBB"], (d1, d1), (d2, d3))
    whole, narrow = tmp_path / "whole.csv", tmp_path / "narrow.csv"
    assert run_cli("fetch", "--universe", ini, "--out", whole, "--url-template", template) == 0
    panel = parse_price_file(whole)
    assert panel.tickers == ["AAA", "BBB"] and panel.dates == [d1, d2, d3]
    # the flags override what the universe file gives
    assert run_cli("fetch", "--universe", ini, "--tickers", "BBB", "--start", d2, "--end", d2,
                   "--out", narrow, "--url-template", template) == 0
    panel = parse_price_file(narrow)
    assert panel.tickers == ["BBB"] and panel.dates == [d2]
    assert capsys.readouterr().out == f"wrote {whole}\nwrote {narrow}\n"


def test_fetch_refuses_a_repeated_ticker_and_writes_nothing(tmp_path, capsys):
    template = _quote_files(tmp_path / "quotes", {"AAA": [(date(2022, 1, 3), 10.0)]})
    out = tmp_path / "prices.csv"
    assert run_cli("fetch", "--tickers", "AAA", "AAA", "--start", "2022-01-03",
                   "--end", "2022-01-05", "--out", out, "--url-template", template) == 1
    captured = capsys.readouterr()
    assert captured.err == "sectorfolio fetch: duplicate ticker 'AAA'\n"
    assert captured.out == ""
    assert not out.exists()


def test_fetch_refuses_a_padded_ticker_and_writes_nothing(tmp_path, capsys):
    # " AAA" has its own quote file, but its rows would read back as AAA's repeats
    quote = [(date(2022, 1, 3), 10.0)]
    template = _quote_files(tmp_path / "quotes", {"AAA": quote, " AAA": quote})
    out = tmp_path / "prices.csv"
    assert run_cli("fetch", "--tickers", "AAA", " AAA", "--start", "2022-01-03",
                   "--end", "2022-01-05", "--out", out, "--url-template", template) == 1
    captured = capsys.readouterr()
    assert captured.err == "sectorfolio fetch: ticker ' AAA' has surrounding whitespace\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "quotes"]


def test_exclusions_log_written_for_sparse_ticker(tmp_path):
    ini, _ = build_sector(
        tmp_path, tickers=["AAA", "BBB", "CCC", "DDD"], seed=8,
        train_days=50, test_days=10, sparse_head=("DDD", 40),
    )
    out = tmp_path / "out"
    assert run_cli(
        "pipeline", "--universe", ini, "--out", out, "--samples", 300
    ) == 0
    assert (out / "exclusions.log").read_bytes() == b"ticker,missing_fraction\nDDD,0.8000\n"
    books = read_weights_csv(out / "weights.csv")
    assert books["ewp"].tickers == ["AAA", "BBB", "CCC"]


def test_fixed_amount_backtest_reproduces_the_pipeline_ewp_backtest(tmp_path):
    # DDD is excluded: both runs book capital / 4 per retained ticker
    ini, _ = build_sector(
        tmp_path, tickers=["AAA", "BBB", "CCC", "DDD"], seed=8,
        train_days=50, test_days=10, sparse_head=("DDD", 40),
    )
    out, rerun = tmp_path / "out", tmp_path / "rerun"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 300) == 0
    assert run_cli(
        "backtest", "--universe", ini, "--out", rerun, "--weights", out / "weights.csv",
        "--column", "ewp", "--mode", "fixed-amount-per-stock",
    ) == 0
    expected = (out / "backtest_ewp.csv").read_bytes()
    assert b"\nTOTAL,0.750000,,75000.00," in expected
    assert (rerun / "backtest_ewp.csv").read_bytes() == expected


def test_backtest_buys_a_suspended_ticker_at_its_last_pre_test_close(tmp_path):
    tickers, train_days, test_days = ["AAA", "BBB", "CCC"], 60, 30
    panel = random_panel(tickers, train_days + test_days, seed=12, start=date(2021, 1, 4))
    closes = panel.closes.copy()
    # CCC is suspended for the first 10 test days and comes back at 2x
    closes[2, train_days:train_days + 10] = np.nan
    closes[2, train_days + 10:] *= 2.0
    write_long_csv(PricePanel(tickers, panel.dates, closes), tmp_path / "demo.csv")
    ini = write_universe(
        tmp_path / "demo.ini", "Demo", tickers,
        (panel.dates[0], panel.dates[train_days - 1]),
        (panel.dates[train_days], panel.dates[-1]), prices="demo.csv",
    )
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 200) == 0
    report = (out / "backtest_ewp.csv").read_text(encoding="utf-8")
    rows = {r.split(",")[0]: r.split(",") for r in report.splitlines()}
    last_pre_test = closes[2, train_days - 1]
    assert rows["CCC"][2] == f"{last_pre_test:.2f}"
    assert rows["CCC"][2] != f"{closes[2, train_days + 10]:.2f}"
    assert rows["AAA"][2] == f"{closes[0, train_days]:.2f}"


def test_book_ticker_without_a_pre_test_close_names_sector_and_ticker(tmp_path, capsys):
    # CCC lists three days into the test window: it has nothing to carry
    ini, _ = build_sector(tmp_path, sector="Late Sector", seed=5, sparse_head=("CCC", 63))
    out = tmp_path / "out"
    out.mkdir()
    (out / "weights.csv").write_text(
        "ticker,ewp,mrp,orp\n"
        "AAA,0.333334,0.5,0.5\nBBB,0.333333,0.5,0.5\nCCC,0.333333,0.0,0.0\n",
        encoding="utf-8",
    )
    assert run_cli(
        "backtest", "--universe", ini, "--out", out,
        "--weights", out / "weights.csv", "--column", "ewp",
    ) == 1
    err = capsys.readouterr().err
    assert "Late Sector: CCC: no close before" in err


def test_book_ticker_without_any_test_quote_fails_the_sector(tmp_path, capsys):
    tickers, train_days, test_days = ["AAA", "BBB", "CCC"], 60, 15
    panel = random_panel(tickers, train_days + test_days, seed=6, start=date(2021, 1, 4))
    closes = panel.closes.copy()
    closes[2, train_days:] = np.nan  # CCC stops trading when the test window opens
    write_long_csv(PricePanel(tickers, panel.dates, closes), tmp_path / "demo.csv")
    ini = write_universe(
        tmp_path / "demo.ini", "Delisted", tickers,
        (panel.dates[0], panel.dates[train_days - 1]),
        (panel.dates[train_days], panel.dates[-1]), prices="demo.csv",
    )
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 200) == 1
    assert "Delisted: CCC: no observations to fill from" in capsys.readouterr().err
    assert not (out / "backtest_ewp.csv").exists()


def _snapshot(directory):
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def _files_and_dates(directory):
    return {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in directory.iterdir()
            if path.is_file()}


def test_a_failed_rerun_leaves_its_output_directory_byte_identical(tmp_path, capsys):
    ini, prices = build_sector(tmp_path, sector="Metal", train_days=60, test_days=15)
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 200,
                   "--seed", 0) == 0
    before = _snapshot(out)
    capsys.readouterr()
    # a one-date test window trains a new book but cannot backtest it
    test_day = parse_price_file(prices).dates[60]
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 200,
                   "--seed", 7, "--test", f"{test_day}:{test_day}") == 1
    assert _snapshot(out) == before
    captured = capsys.readouterr()
    assert captured.err == (
        "sectorfolio pipeline: Metal: backtest needs at least 2 dates, panel has 1\n")
    assert captured.out == ""


def test_a_directory_in_place_of_an_output_file_leaves_every_older_file(tmp_path, capsys):
    ini, _ = build_sector(tmp_path, sector="Metal")
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 200) == 0
    (out / "frontier.csv").unlink()
    (out / "frontier.csv").mkdir()
    before = _files_and_dates(out)
    capsys.readouterr()
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 300) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"sectorfolio pipeline: Metal: [Errno {errno.EISDIR}] "
                            f"{os.strerror(errno.EISDIR)}: '{out / 'frontier.csv'}'\n")
    assert captured.out == ""
    # the same files, bytes and dates, and no temporary beside them
    assert _files_and_dates(out) == before


def test_a_writer_that_fails_midway_leaves_every_older_file(tmp_path, capsys, monkeypatch):
    ini, _ = build_sector(tmp_path, sector="Metal")
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 200) == 0
    before = _snapshot(out)
    capsys.readouterr()

    def disk_full(report, dest):
        dest.write("ticker,")
        raise OSError(errno.ENOSPC, "No space left on device")

    # backtest_ewp.csv is the fourth file, after three are written
    monkeypatch.setattr(cli, "write_backtest_csv", disk_full)
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 300,
                   "--seed", 5) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"sectorfolio pipeline: Metal: [Errno {errno.ENOSPC}] No space left on device\n")
    assert captured.out == ""
    assert _snapshot(out) == before


def test_an_interrupted_rerun_propagates_and_leaves_every_older_file(tmp_path, capsys, monkeypatch):
    ini, _ = build_sector(tmp_path, sector="Metal")
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 200) == 0
    before = _files_and_dates(out)
    capsys.readouterr()

    def interrupted(report, dest):
        with csv_writer(dest, ["ticker", "weight"]) as (_, writer):
            writer.writerow(["AAA", "0.5"])
            raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_backtest_csv", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 300, "--seed", 5)
    assert capsys.readouterr() == ("", "")
    # the same files, bytes and dates, and no dot file beside them
    assert _files_and_dates(out) == before


def test_a_temporary_left_by_a_killed_run_does_not_block_a_rerun(tmp_path, capsys):
    ini, _ = build_sector(tmp_path, sector="Metal")
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 200) == 0
    first = (out / "weights.csv").read_bytes()
    # the name an earlier run of this pid gave the temporary of stats.csv's part file
    stale = out / f"..stats.csv.{os.getpid()}.part.{os.getpid()}.tmp"
    stale.write_bytes(b"ticker,")
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 300) == 0
    assert (out / "weights.csv").read_bytes() != first
    assert stale.read_bytes() == b"ticker,"
    assert [p.name for p in out.iterdir() if p.name.startswith(".")] == [stale.name]


def test_a_cloud_too_large_to_allocate_fails_its_sector_in_one_line(tmp_path, capsys):
    ini, _ = build_sector(tmp_path, sector="Metal")
    out = tmp_path / "out"
    # 7.11 PiB, beyond any address space, fails however memory is overcommitted
    assert run_cli("weights", "--universe", ini, "--out", out, "--samples", 10**15) == 1
    err = capsys.readouterr().err
    assert err.startswith("sectorfolio weights: Metal: Unable to allocate 7.11 PiB")
    assert err.count("\n") == 1
    assert not out.exists()
    _three_sectors_sharing_one_file(tmp_path / "configs")
    assert run_cli("pipeline", "--universe", tmp_path / "configs", "--all",
                   "--out", out, "--samples", 10**15) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[1:3] for line in lines] == [
        [sector, "Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) "
         "and data type float64"] for sector in ("Alpha", "Beta", "Gamma")]


def test_pipeline_all_writes_nothing_for_a_sector_that_fails_its_test_window(tmp_path, capsys):
    prices = _three_sectors_sharing_one_file(tmp_path / "configs")
    universe = read_universe_config(tmp_path / "configs" / "alpha.ini")
    test_day = universe.test_window[0]
    write_universe(tmp_path / "configs" / "alpha.ini", "Alpha", ["AAA", "BBB"],
                   universe.train_window, (test_day, test_day), prices=prices.name)
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", tmp_path / "configs", "--all",
                   "--out", out, "--samples", 200) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "sectorfolio pipeline: Alpha: backtest needs at least 2 dates, panel has 1\n")
    assert "Alpha:" not in captured.out
    assert not (out / "alpha").exists()
    assert [r.sector for r in read_sector_results(out / "summary.csv")] == ["Beta", "Gamma"]


def test_single_pipeline_names_the_sector_of_an_absent_ticker(tmp_path, capsys):
    ini, prices = build_sector(tmp_path, sector="Two Names", tickers=["AAA", "BBB"])
    universe = read_universe_config(ini)
    write_universe(ini, "Two Names", ["AAA", "BBB", "CCC"], universe.train_window,
                   universe.test_window, prices=prices.name)
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 100) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "sectorfolio pipeline: Two Names: tickers absent from price source: CCC\n")
    assert captured.out == ""
    assert not out.exists()


def _count_parses(monkeypatch):
    parsed: list[Path] = []

    def counting(source):
        parsed.append(Path(source))
        return parse_price_file(source)

    monkeypatch.setattr(cli, "parse_price_file", counting)
    return parsed


SECTOR_COMMANDS = ["stats", "weights", "frontier", "backtest", "pipeline"]


def _sector_argv(command, ini, out, weights):
    """One sector command on `ini`; backtest replays the ORP of `weights`."""
    extra = {"stats": [], "backtest": ["--weights", weights]}.get(command, ["--samples", 200])
    return [command, "--universe", ini, "--out", out, *extra]


@pytest.mark.parametrize("command", SECTOR_COMMANDS)
def test_every_sector_command_parses_its_price_file_once(tmp_path, monkeypatch, command):
    ini, prices = build_sector(tmp_path, seed=3)
    prep = tmp_path / "prep"
    assert run_cli("weights", "--universe", ini, "--out", prep, "--samples", 200) == 0
    parsed = _count_parses(monkeypatch)
    assert run_cli(*_sector_argv(command, ini, tmp_path / "out", prep / "weights.csv")) == 0
    assert parsed == [prices]


@pytest.mark.parametrize("command", SECTOR_COMMANDS)
def test_every_sector_command_fails_in_one_line_naming_its_sector(tmp_path, capsys, command):
    ini, prices = build_sector(tmp_path, sector="Bad Close")
    lines = prices.read_text(encoding="utf-8").splitlines(keepends=True)
    prices.write_text("".join(lines) + "2021-01-04,AAA,x\n", encoding="utf-8")
    weights = tmp_path / "weights.csv"
    weights.write_text("ticker,ewp,mrp,orp\nAAA,0.4,0.5,0.4\nBBB,0.3,0.5,0.3\nCCC,0.3,0,0.3\n",
                       encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(*_sector_argv(command, ini, out, weights)) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"sectorfolio {command}: Bad Close: {prices}: line {len(lines) + 1}: "
        "bad close 'x' for AAA\n")
    assert captured.out == ""
    assert not out.exists()


def _three_sectors_sharing_one_file(root):
    root.mkdir()
    ini, prices = build_sector(root, seed=4, stem="shared")
    universe = read_universe_config(ini)
    ini.unlink()
    for sector, tickers in (("Alpha", ["AAA", "BBB"]), ("Beta", ["BBB", "CCC"]),
                            ("Gamma", ["AAA", "CCC"])):
        write_universe(root / f"{sector.lower()}.ini", sector, tickers,
                       universe.train_window, universe.test_window, prices=prices.name)
    return prices


def test_pipeline_all_parses_a_shared_price_file_once(tmp_path, monkeypatch):
    prices = _three_sectors_sharing_one_file(tmp_path / "configs")
    parsed = _count_parses(monkeypatch)
    assert run_cli("pipeline", "--universe", tmp_path / "configs", "--all",
                   "--out", tmp_path / "out", "--samples", 200, "--jobs", 2) == 0
    assert parsed == [prices]
    assert [r.sector for r in read_sector_results(tmp_path / "out" / "summary.csv")] == [
        "Alpha", "Beta", "Gamma"]


def test_pipeline_all_parses_a_bad_shared_price_file_once(tmp_path, monkeypatch, capsys):
    prices = _three_sectors_sharing_one_file(tmp_path / "configs")
    lines = prices.read_text(encoding="utf-8").splitlines(keepends=True)
    prices.write_text("".join(lines) + "2021-01-04,AAA,x\n", encoding="utf-8")
    parsed = _count_parses(monkeypatch)
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", tmp_path / "configs", "--all",
                   "--out", out, "--samples", 200) == 1
    assert parsed == [prices]
    reason = f"{prices}: line {len(lines) + 1}: bad close 'x' for AAA"
    assert capsys.readouterr().err == "".join(
        f"sectorfolio pipeline: {sector}: {reason}\n" for sector in ("Alpha", "Beta", "Gamma"))
    assert not out.exists()


def test_pipeline_all_stops_at_a_closed_stdout_in_one_line(tmp_path, monkeypatch, capsys):
    _three_sectors_sharing_one_file(tmp_path / "configs")
    argv = ["pipeline", "--universe", tmp_path / "configs", "--all", "--samples", 200]
    assert run_cli(*argv, "--out", tmp_path / "fresh") == 0
    fresh = _snapshot(tmp_path / "fresh" / "alpha")
    out = tmp_path / "out"
    (out / "alpha").mkdir(parents=True)
    for name in fresh:
        (out / "alpha" / name).write_bytes(b"an earlier run\n")
    capsys.readouterr()

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run_cli(*argv, "--out", out) == 1
    assert capsys.readouterr().err == "sectorfolio pipeline: [Errno 32] Broken pipe\n"
    # the first sector put all of its files in place before it could say so,
    # none of them left from the earlier run; no other sector ran
    assert [p.name for p in out.iterdir()] == ["alpha"]
    assert _snapshot(out / "alpha") == fresh


def test_pipeline_all_jobs_do_not_change_a_byte(tmp_path):
    _three_sectors_sharing_one_file(tmp_path / "configs")
    outs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli("pipeline", "--universe", tmp_path / "configs", "--all",
                       "--out", out, "--samples", 300, "--seed", 2, "--jobs", jobs) == 0
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert len(files) == 3 * 6 + 1
    assert sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file()) == files
    for name in files:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


def test_pipeline_all_reports_a_broken_sector_and_runs_the_rest(tmp_path, capsys):
    prices = _three_sectors_sharing_one_file(tmp_path / "configs")
    universe = read_universe_config(tmp_path / "configs" / "alpha.ini")
    write_universe(tmp_path / "configs" / "alpha.ini", "Alpha", ["AAA", "ZZZ"],
                   universe.train_window, universe.test_window, prices=prices.name)
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", tmp_path / "configs", "--all",
                   "--out", out, "--samples", 200) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "sectorfolio pipeline: Alpha: tickers absent from price source: ZZZ\n")
    assert f"wrote {out / 'summary.csv'}" in captured.out
    assert [r.sector for r in read_sector_results(out / "summary.csv")] == ["Beta", "Gamma"]
    assert not (out / "alpha").exists()

    # with no sector finished, no summary is written
    for name in ("beta", "gamma"):
        write_universe(tmp_path / "configs" / f"{name}.ini", name.title(), ["ZZZ"],
                       universe.train_window, universe.test_window, prices=prices.name)
    out = tmp_path / "none"
    assert run_cli("pipeline", "--universe", tmp_path / "configs", "--all",
                   "--out", out, "--samples", 200) == 1
    assert capsys.readouterr().err.count("\n") == 3
    assert not (out / "summary.csv").exists()


def test_overlapping_window_overrides_fail_before_writing(tmp_path, capsys):
    ini, prices = build_sector(tmp_path, train_days=60, test_days=15)
    dates = load_price_panel(prices, read_universe_config(ini)).dates
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 100,
                   "--train", f"{dates[0]}:{dates[50]}",
                   "--test", f"{dates[40]}:{dates[-1]}") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sectorfolio pipeline: ")
    assert "training window must end before the test window begins" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_a_rerun_that_excludes_nothing_removes_the_old_exclusions_log(tmp_path, capsys):
    # CCC misses 40 of 60 training dates: excluded at 0.30, kept at 0.9
    ini, _ = build_sector(tmp_path, seed=8, sparse_head=("CCC", 40))
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 200) == 0
    assert (out / "exclusions.log").read_text(encoding="utf-8").splitlines()[1:] == ["CCC,0.6667"]
    capsys.readouterr()
    assert run_cli("pipeline", "--universe", ini, "--out", out, "--samples", 200,
                   "--threshold", 0.9) == 0
    assert not (out / "exclusions.log").exists()
    assert "exclusions.log" not in capsys.readouterr().out
    assert read_weights_csv(out / "weights.csv")["ewp"].tickers == TICKERS


def test_pipeline_all_reports_an_unreadable_ini_and_runs_the_rest(tmp_path, monkeypatch, capsys):
    for case, edit, reason in [
        ("missing-key", lambda text: text.split("test =")[0], "missing 'test' in [universe]"),
        ("comment-sector", lambda text: text.replace("sector = Delta", "sector=#Auto"),
         "sector name '#Auto' reads as a CSV comment"),
    ]:
        (tmp_path / case).mkdir()
        configs = tmp_path / case / "configs"
        prices = _three_sectors_sharing_one_file(configs)
        # a price file of its own, which a sector read from this INI would parse
        own = configs / "delta.csv"
        own.write_bytes(prices.read_bytes())
        universe = read_universe_config(configs / "alpha.ini")
        bad = write_universe(configs / "delta.ini", "Delta", ["AAA"], universe.train_window,
                             universe.test_window, prices=own.name)
        bad.write_text(edit(bad.read_text(encoding="utf-8")), encoding="utf-8")
        parsed = _count_parses(monkeypatch)
        out = tmp_path / case / "out"
        assert run_cli("pipeline", "--universe", configs, "--all", "--out", out,
                       "--samples", 200) == 1
        assert parsed == [prices], case
        captured = capsys.readouterr()
        assert captured.err == f"sectorfolio pipeline: {bad}: {reason}\n"
        assert f"wrote {out / 'summary.csv'}" in captured.out
        assert [r.sector for r in read_sector_results(out / "summary.csv")] == [
            "Alpha", "Beta", "Gamma"]


@pytest.mark.parametrize("command", SECTOR_COMMANDS)
def test_a_sector_name_that_reads_as_a_comment_is_refused_with_its_ini(tmp_path, capsys, command):
    ini, _ = build_sector(tmp_path)
    ini.write_text(ini.read_text(encoding="utf-8").replace("sector = Demo", "sector=#Auto"),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(*_sector_argv(command, ini, out, tmp_path / "weights.csv")) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"sectorfolio {command}: {ini}: sector name '#Auto' reads as a CSV comment\n")
    assert captured.out == ""
    assert not out.exists()


def test_pipeline_all_rejects_a_risk_free_rate_that_is_not_finite_in_one_line(tmp_path, capsys):
    _three_sectors_sharing_one_file(tmp_path / "configs")
    out = tmp_path / "out"
    assert run_cli("pipeline", "--universe", tmp_path / "configs", "--all", "--out", out,
                   "--rf", "nan") == 1
    captured = capsys.readouterr()
    assert captured.err == "sectorfolio pipeline: risk-free rate must be finite\n"
    assert captured.out == ""
    assert not out.exists()


def test_weights_rejects_a_risk_free_rate_that_is_not_finite_in_one_line(tmp_path, capsys):
    ini, _ = build_sector(tmp_path)
    out = tmp_path / "out"
    assert run_cli("weights", "--universe", ini, "--out", out, "--rf", "inf") == 1
    captured = capsys.readouterr()
    assert captured.err == "sectorfolio weights: risk-free rate must be finite\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["weights", "frontier", "pipeline"])
def test_sampler_choices_are_the_samplers(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f"--sampler {{{','.join(SAMPLERS)}}}" in capsys.readouterr().out


@pytest.mark.parametrize("options, reason", [
    (["--samples", "0"], "n_samples must be at least 1, got 0"),
    (["--seed", "-1"], "seed must be an integer in [0, 2**128), got -1"),
    (["--threshold", "1.5"], "threshold must be within [0, 1], got 1.5"),
    (["--capital", "nan"], "capital must be positive and finite, got nan"),
    (["--train", "2021-03-01:2021-01-04"], "train window starts after it ends"),
    (["--test", "2021-04-20:2021-04-01"], "test window starts after it ends"),
    (["--train", "2021-01-04:2021-04-01", "--test", "2021-03-01:2021-04-20"],
     "training window must end before the test window begins"),
], ids=["samples", "seed", "threshold", "capital", "inverted-train", "inverted-test",
        "overlapping-windows"])
def test_pipeline_all_rejects_a_bad_option_in_one_line_before_any_sector_runs(
        tmp_path, capsys, monkeypatch, options, reason):
    # one sector, on every command that takes the option, fails alike, reading no file
    configs = tmp_path / "configs"
    _three_sectors_sharing_one_file(configs)
    parsed = _count_parses(monkeypatch)
    out = tmp_path / "out"
    takers = {"--samples": ["weights", "frontier", "pipeline"],
              "--seed": ["weights", "frontier", "pipeline"],
              "--capital": ["backtest", "pipeline"]}.get(options[0], SECTOR_COMMANDS)
    runs = [("pipeline", ["pipeline", "--universe", configs, "--all", "--out", out])]
    runs += [(command, _sector_argv(command, configs / "alpha.ini", out, tmp_path / "weights.csv"))
             for command in takers]
    for command, argv in runs:
        assert run_cli(*argv, *options) == 1
        captured = capsys.readouterr()
        assert captured.err == f"sectorfolio {command}: {reason}\n"
        assert captured.out == ""
        assert parsed == []
        assert not out.exists()


COMMANDS = ["stats", "weights", "frontier", "backtest", "pipeline", "pipeline --all", "summary"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_announces_exactly_the_files_it_writes(tmp_path, capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    # CCC is excluded, so the sector commands also write exclusions.log
    ini, _ = build_sector(data, seed=8, sparse_head=("CCC", 40))
    prep = tmp_path / "prep"
    assert run_cli("pipeline", "--universe", ini, "--out", prep, "--samples", 200) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {
        "pipeline --all": ["pipeline", "--universe", data, "--all", "--out", out,
                           "--samples", 200],
        "summary": ["summary", prep / "sector_result.csv", "--out", out],
    }.get(command) or _sector_argv(command, ini, out, prep / "weights.csv")
    assert run_cli(*argv) == 0
    wrote = [Path(line.removeprefix("wrote "))
             for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert sorted(wrote) == sorted(p for p in out.rglob("*") if p.is_file())
    if command in ("stats", "weights", "frontier", "pipeline"):
        # each command's own files come first, the exclusions log last
        assert wrote[-1] == out / "exclusions.log"
