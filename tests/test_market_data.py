"""Loading, alignment, gap filling, and the missing-data policy."""

import csv
import io
import random
from datetime import date
from unittest import mock

import numpy as np
import pytest

from sectorfolio import (
    CovarianceMatrix,
    DataFormatError,
    EmptyPanelError,
    EmptyUniverseError,
    FetchError,
    FrontierCloud,
    InsufficientDataError,
    MissingTickerError,
    PricePanel,
    PriceSeries,
    ReturnSeries,
    SectorResult,
    UniverseConfig,
    WeightVector,
    apply_missing_data_policy,
    equal_weights,
    export_frontier,
    fill_gaps,
    load_price_panel,
    parse_price_file,
    read_frontier_csv,
    read_sector_results,
    read_universe_config,
    read_weights_csv,
    sample_frontier,
    write_long_csv,
    write_summary,
    write_weights_csv,
)

from sectorfolio import _files, market_data
from sectorfolio.fetch import fetch_history

from helpers import check_array_path, random_panel, weekdays

D1, D2, D3 = date(2022, 1, 3), date(2022, 1, 4), date(2022, 1, 5)


def make_universe(tickers, **overrides):
    kwargs = dict(
        sector="Test",
        tickers=list(tickers),
        train_window=(date(2021, 1, 1), date(2021, 12, 31)),
        test_window=(date(2022, 1, 1), date(2022, 12, 31)),
    )
    kwargs.update(overrides)
    return UniverseConfig(**kwargs)


LONG_CSV = """date,ticker,close
2022-01-03,AAA,100
2022-01-04,AAA,110
2022-01-05,AAA,99
2022-01-03,BBB,50
2022-01-04,BBB,51
2022-01-05,BBB,52
"""

WIDE_CSV = """date,AAA,BBB
2022-01-03,100,50
2022-01-04,110,51
2022-01-05,99,52
"""


def test_long_layout_loads_exact_values():
    panel = load_price_panel(io.StringIO(LONG_CSV), make_universe(["AAA", "BBB"]))
    assert panel.tickers == ["AAA", "BBB"]
    assert panel.dates == [D1, D2, D3]
    assert panel.closes.tolist() == [[100.0, 110.0, 99.0], [50.0, 51.0, 52.0]]
    assert panel.is_complete


def test_wide_layout_matches_long_layout():
    universe = make_universe(["AAA", "BBB"])
    from_long = load_price_panel(io.StringIO(LONG_CSV), universe)
    from_wide = load_price_panel(io.StringIO(WIDE_CSV), universe)
    assert from_wide.tickers == from_long.tickers
    assert from_wide.dates == from_long.dates
    assert np.array_equal(from_wide.closes, from_long.closes)


def test_panel_follows_universe_ticker_order():
    panel = load_price_panel(io.StringIO(LONG_CSV), make_universe(["BBB", "AAA"]))
    assert panel.tickers == ["BBB", "AAA"]
    assert panel.closes[0, 0] == 50.0


def test_configured_ticker_absent_from_file():
    with pytest.raises(MissingTickerError) as exc:
        load_price_panel(io.StringIO(LONG_CSV), make_universe(["AAA", "CCC"]))
    assert "CCC" in str(exc.value)
    assert exc.value.tickers == ["CCC"]


def test_malformed_close_names_the_line():
    bad = "date,ticker,close\n2022-01-03,AAA,100\n2022-01-04,AAA,oops\n"
    with pytest.raises(DataFormatError, match="line 3"):
        load_price_panel(io.StringIO(bad), make_universe(["AAA"]))


# date.fromisoformat takes both spellings from Python 3.11 on, not on 3.10
@pytest.mark.parametrize("day", ["20220104", "2022-W01-2"])
@pytest.mark.parametrize(
    "header, row", [("date,ticker,close", "{},AAA,101"), ("date,AAA", "{},101")],
    ids=["long", "wide"],
)
def test_dates_other_than_yyyy_mm_dd_name_the_line(day, header, row):
    text = "\n".join([header, row.format("2022-01-03"), row.format(day)]) + "\n"
    with pytest.raises(DataFormatError, match=f"line 3: bad date '{day}'"):
        parse_price_file(io.StringIO(text))


def test_nonpositive_close_rejected():
    bad = "date,ticker,close\n2022-01-03,AAA,-5\n"
    with pytest.raises(DataFormatError, match="line 2"):
        load_price_panel(io.StringIO(bad), make_universe(["AAA"]))


def test_duplicate_observation_rejected():
    bad = "date,ticker,close\n2022-01-03,AAA,100\n2022-01-03,AAA,101\n"
    with pytest.raises(DataFormatError, match="duplicate"):
        load_price_panel(io.StringIO(bad), make_universe(["AAA"]))


def test_empty_file_rejected():
    with pytest.raises(DataFormatError, match="empty"):
        load_price_panel(io.StringIO(""), make_universe(["AAA"]))


def test_window_restricts_dates():
    panel = load_price_panel(
        io.StringIO(LONG_CSV), make_universe(["AAA"]), window=(D2, D3)
    )
    assert panel.dates == [D2, D3]
    assert panel.closes.tolist() == [[110.0, 99.0]]


def test_window_with_no_observations():
    with pytest.raises(EmptyPanelError):
        load_price_panel(
            io.StringIO(LONG_CSV),
            make_universe(["AAA"]),
            window=(date(2023, 1, 1), date(2023, 12, 31)),
        )


def test_union_dates_leave_nan_gaps():
    csv_text = (
        "date,ticker,close\n"
        "2022-01-03,AAA,100\n2022-01-04,AAA,110\n2022-01-05,AAA,99\n"
        "2022-01-03,BBB,50\n2022-01-05,BBB,52\n"
    )
    panel = load_price_panel(io.StringIO(csv_text), make_universe(["AAA", "BBB"]))
    assert panel.dates == [D1, D2, D3]
    assert np.isnan(panel.closes[1, 1])
    assert not panel.is_complete
    assert panel.missing_fraction("BBB") == pytest.approx(1.0 / 3.0)
    assert panel.missing_fraction("AAA") == 0.0


def test_series_drops_gaps():
    closes = np.array([[100.0, np.nan, 99.0]])
    panel = PricePanel(["AAA"], [D1, D2, D3], closes)
    series = panel.series("AAA")
    assert series.dates == [D1, D3]
    assert series.closes.tolist() == [100.0, 99.0]


def test_fill_gaps_carries_forward_and_backfills_head():
    closes = np.array(
        [
            [10.0, np.nan, np.nan, 12.0],
            [np.nan, 5.0, np.nan, 6.0],
        ]
    )
    dates = weekdays(date(2022, 1, 3), 4)
    filled = fill_gaps(PricePanel(["AAA", "BBB"], dates, closes))
    assert filled.closes[0].tolist() == [10.0, 10.0, 10.0, 12.0]
    assert filled.closes[1].tolist() == [5.0, 5.0, 5.0, 6.0]


def test_fill_gaps_trailing_gap_carries_last_price():
    closes = np.array([[10.0, 11.0, np.nan]])
    filled = fill_gaps(PricePanel(["AAA"], [D1, D2, D3], closes))
    assert filled.closes[0].tolist() == [10.0, 11.0, 11.0]


def test_fill_gaps_never_invents_price_levels():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_dates = int(rng.integers(3, 25))
        dates = weekdays(date(2021, 6, 1), n_dates)
        closes = rng.uniform(10, 500, size=(3, n_dates))
        mask = rng.random((3, n_dates)) < 0.35
        for i in range(3):
            if mask[i].all():
                mask[i, int(rng.integers(n_dates))] = False
        closes[mask] = np.nan
        panel = PricePanel(["A", "B", "C"], dates, closes)
        filled = fill_gaps(panel)
        assert filled.is_complete
        for i in range(3):
            observed = set(closes[i][~np.isnan(closes[i])])
            assert set(filled.closes[i]) <= observed


def test_fill_gaps_needs_at_least_one_observation():
    closes = np.array([[10.0, 11.0, 12.0], [np.nan, np.nan, np.nan]])
    with pytest.raises(InsufficientDataError, match="BBB"):
        fill_gaps(PricePanel(["AAA", "BBB"], [D1, D2, D3], closes))


def test_policy_excludes_strictly_above_threshold():
    dates = weekdays(date(2021, 1, 4), 10)
    closes = np.full((3, 10), 100.0)
    closes[1, :3] = np.nan  # 30% missing: retained at the default threshold
    closes[2, :4] = np.nan  # 40% missing: excluded
    panel = PricePanel(["FULL", "EDGE", "SPARSE"], dates, closes)
    filled, excluded = apply_missing_data_policy(panel)
    assert filled.tickers == ["FULL", "EDGE"]
    assert filled.is_complete
    assert excluded == [("SPARSE", pytest.approx(0.4))]


def test_policy_all_excluded():
    closes = np.array([[np.nan, np.nan, 3.0]])
    panel = PricePanel(["AAA"], [D1, D2, D3], closes)
    with pytest.raises(EmptyUniverseError):
        apply_missing_data_policy(panel, threshold=0.5)


def test_policy_threshold_validation():
    panel = PricePanel(["AAA"], [D1], np.array([[5.0]]))
    with pytest.raises(ValueError):
        apply_missing_data_policy(panel, threshold=1.5)
    with pytest.raises(ValueError):
        apply_missing_data_policy(panel, threshold=-0.1)


def test_policy_exclusion_monotone_in_threshold():
    rng = np.random.default_rng(7)
    tickers = [f"T{i}" for i in range(5)]
    for _ in range(200):
        n_dates = int(rng.integers(4, 30))
        dates = weekdays(date(2021, 1, 4), n_dates)
        closes = rng.uniform(10, 100, size=(5, n_dates))
        mask = rng.random((5, n_dates)) < rng.uniform(0.0, 0.6)
        mask[0] = False  # keep one ticker complete so the policy never empties
        for i in range(1, 5):
            if mask[i].all():
                mask[i, int(rng.integers(n_dates))] = False
        closes[mask] = np.nan
        panel = PricePanel(tickers, dates, closes)
        t_low, t_high = sorted(rng.uniform(0.0, 1.0, size=2))
        _, excluded_low = apply_missing_data_policy(panel, t_low)
        _, excluded_high = apply_missing_data_policy(panel, t_high)
        assert {t for t, _ in excluded_high} <= {t for t, _ in excluded_low}


def test_window_preserves_requested_order():
    panel = load_price_panel(io.StringIO(LONG_CSV), make_universe(["AAA", "BBB"]))
    sub = panel.window(["BBB", "AAA"])
    assert sub.tickers == ["BBB", "AAA"]
    assert sub.closes.tolist() == [[50.0, 51.0, 52.0], [100.0, 110.0, 99.0]]
    with pytest.raises(MissingTickerError):
        panel.window(["AAA", "ZZZ"])
    with pytest.raises(EmptyPanelError):
        panel.window([])


@pytest.mark.parametrize("cut", [
    lambda panel, tickers: panel.window(tickers),
    lambda panel, tickers: panel.last_closes(tickers, D3),
], ids=["window", "last_closes"])
def test_every_absent_ticker_is_named(cut):
    panel = PricePanel(["AAA", "BBB"], [D1, D2, D3], np.ones((2, 3)))
    with pytest.raises(MissingTickerError) as info:
        cut(panel, iter(["ZZZ", "AAA", "YYY", "BBB"]))
    assert info.value.tickers == ["ZZZ", "YYY"]
    assert str(info.value) == "tickers absent from price source: ZZZ, YYY"


def test_price_series_validation():
    with pytest.raises(ValueError):
        PriceSeries("AAA", [D2, D1], np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PriceSeries("AAA", [D1, D2], np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        PriceSeries("AAA", [D1], np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="^ticker must be non-empty$"):
        PriceSeries("", [D1], np.array([1.0]))
    with pytest.raises(ValueError, match="^AAA: empty price series$"):
        PriceSeries("AAA", [], np.array([]))


def test_panel_validation():
    with pytest.raises(ValueError):
        PricePanel(["AAA", "AAA"], [D1], np.ones((2, 1)))
    with pytest.raises(EmptyPanelError):
        PricePanel([], [D1], np.ones((0, 1)))
    with pytest.raises(ValueError):
        PricePanel(["AAA"], [D1, D2], np.ones((1, 3)))
    with pytest.raises(EmptyPanelError, match="^panel has no dates$"):
        PricePanel(["AAA"], [], np.ones((1, 0)))
    with pytest.raises(ValueError, match="^panel dates not strictly increasing at 2022-01-03$"):
        PricePanel(["AAA"], [D2, D1], np.ones((1, 2)))
    with pytest.raises(ValueError, match="^observed closes must be finite and positive$"):
        PricePanel(["AAA"], [D1, D2], np.array([[1.0, 0.0]]))
    gappy = PricePanel(["AAA", "BBB"], [D1], np.array([[1.0], [np.nan]]))
    with pytest.raises(InsufficientDataError, match="^BBB: no observations in panel$"):
        gappy.series("BBB")


@pytest.mark.parametrize(
    "sector, tickers, error, message",
    [
        ("", ["AAA"], ValueError, "sector name must be non-empty"),
        ("Test", [], EmptyUniverseError, "Test: no tickers configured"),
        ("Test", ["AAA", "BBB", "AAA"], ValueError, "duplicate Test: ticker 'AAA'"),
        ("#Auto", ["AAA"], ValueError, "sector name '#Auto' reads as a CSV comment"),
    ],
    ids=["empty-sector", "no-tickers", "repeated-ticker", "comment-sector"],
)
def test_universe_config_names_what_it_rejects(sector, tickers, error, message):
    with pytest.raises(error) as caught:
        make_universe(tickers, sector=sector)
    assert str(caught.value) == message


def test_universe_config_roundtrip(tmp_path):
    text = (
        "[universe]\n"
        "sector = Public Sector Banks\n"
        "tickers = SBIN, BANKBARODA CANBK\n"
        "train = 2017-01-01:2021-12-31\n"
        "test = 2022-01-01:2022-12-31\n"
        "prices = psu.csv  ; resolved next to this file\n"
        "\n"
        "[contributions]\n"
        "SBIN = 19.51\n"
    )
    path = tmp_path / "psu.ini"
    path.write_text(text, encoding="utf-8")
    cfg = read_universe_config(path)
    assert cfg.sector == "Public Sector Banks"
    assert cfg.tickers == ["SBIN", "BANKBARODA", "CANBK"]
    assert cfg.train_window == (date(2017, 1, 1), date(2021, 12, 31))
    assert cfg.test_window == (date(2022, 1, 1), date(2022, 12, 31))
    assert cfg.prices == "psu.csv"


def test_a_crlf_universe_reads_as_its_lf_twin(tmp_path):
    text = ("[universe]\nsector = Auto\ntickers = AAA,\n  BBB\ntrain = 2021-01-01:2021-12-31\n"
            "test = 2022-01-01:2022-12-31\nprices = auto.csv ; here\n")
    lf, crlf, bom = tmp_path / "lf.ini", tmp_path / "crlf.ini", tmp_path / "bom.ini"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    bom.write_bytes(("\ufeff" + text).encode())
    assert read_universe_config(crlf) == read_universe_config(lf)
    assert read_universe_config(bom) == read_universe_config(lf)
    assert read_universe_config(crlf).tickers == ["AAA", "BBB"]


@pytest.mark.parametrize(
    "text, prefix, suffix",
    [
        ("[universe]\nsector = X\nsector = Y\n", "While reading from ",
         ": option 'sector' in section 'universe' already exists"),
        ("sector = X\n[universe]\n", "File contains no section headers. file: ",
         ", line: 1 'sector = X\\n'"),
        ("[prices]\nsector = X\n", "missing [universe] section", ""),
        ("[universe]\nsector = A%B\ntickers = AAA\n"
         "train = 2021-01-01:2021-12-31\ntest = 2022-01-01:2022-12-31\n",
         "'%' must be followed by '%' or '(', found: '%B'", ""),
    ],
    ids=["configparser-error", "no-section-header", "no-universe-section", "lone-percent-sign"],
)
def test_a_universe_file_without_a_readable_universe_section(tmp_path, text, prefix, suffix):
    path = tmp_path / "u.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError) as caught:
        read_universe_config(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: {prefix}") and message.endswith(suffix)
    assert "\n" not in message


def test_a_universe_value_reads_a_doubled_percent_sign_as_one(tmp_path):
    path = tmp_path / "u.ini"
    path.write_text(
        "[universe]\nsector = A%%B\ntickers = AAA\n"
        "train = 2021-01-01:2021-12-31\ntest = 2022-01-01:2022-12-31\n",
        encoding="utf-8",
    )
    assert read_universe_config(path).sector == "A%B"


def test_universe_config_missing_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[universe]\nsector = X\ntickers = AAA\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="train"):
        read_universe_config(path)


def test_universe_config_bad_window(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[universe]\nsector = X\ntickers = AAA\n"
        "train = 2021-01-01/2021-12-31\ntest = 2022-01-01:2022-12-31\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match="train"):
        read_universe_config(path)


def test_universe_config_overlapping_windows(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[universe]\nsector = X\ntickers = AAA\n"
        "train = 2021-01-01:2022-06-30\ntest = 2022-01-01:2022-12-31\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError, match="before the test window"):
        read_universe_config(path)


def test_universe_rejects_inverted_window():
    with pytest.raises(ValueError, match="starts after"):
        make_universe(["AAA"], train_window=(date(2021, 12, 31), date(2021, 1, 1)))


def test_write_long_csv_roundtrip(tmp_path):
    panel = random_panel(["AAA", "BBB", "CCC"], 15, seed=3)
    path = tmp_path / "prices.csv"
    write_long_csv(panel, path)
    again = load_price_panel(path, make_universe(["AAA", "BBB", "CCC"]))
    assert again.dates == panel.dates
    assert np.allclose(again.closes, panel.closes, rtol=1e-11, atol=0.0)


def test_write_long_csv_skips_gaps(tmp_path):
    closes = np.array([[100.0, np.nan, 99.0]])
    panel = PricePanel(["AAA"], [D1, D2, D3], closes)
    path = tmp_path / "prices.csv"
    write_long_csv(panel, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "date,ticker,close"
    assert len(lines) == 3  # header + two observed rows


def test_parse_price_file_is_full_span_in_file_order():
    csv_text = (
        "date,ticker,close\n"
        "2022-01-05,ZZZ,7\n2022-01-03,AAA,100\n2022-01-04,AAA,110\n2022-01-05,AAA,99\n"
    )
    panel = parse_price_file(io.StringIO(csv_text))
    assert panel.tickers == ["ZZZ", "AAA"]
    assert panel.dates == [D1, D2, D3]
    assert np.isnan(panel.closes[0, :2]).all() and panel.closes[0, 2] == 7.0
    assert panel.closes[1].tolist() == [100.0, 110.0, 99.0]


def test_window_cuts_the_full_span_like_load_price_panel():
    full = parse_price_file(io.StringIO(LONG_CSV))
    universe = make_universe(["BBB", "AAA"])
    for window in (None, (D2, D3), (D1, D1)):
        start, end = window or (None, None)
        cut = full.window(universe.tickers, start, end)
        loaded = load_price_panel(io.StringIO(LONG_CSV), universe, window)
        reused = load_price_panel(full, universe, window)  # cut only, nothing parsed
        assert cut.tickers == loaded.tickers == reused.tickers == ["BBB", "AAA"]
        assert cut.dates == loaded.dates == reused.dates
        assert np.array_equal(cut.closes, loaded.closes)
        assert np.array_equal(cut.closes, reused.closes)


def test_window_dates_are_those_its_tickers_trade():
    csv_text = "date,AAA,BBB\n2022-01-03,100,\n2022-01-04,,51\n2022-01-05,99,52\n"
    full = parse_price_file(io.StringIO(csv_text))
    assert full.window(["AAA"]).dates == [D1, D3]
    assert full.window(["BBB"], D1, D2).dates == [D2]
    with pytest.raises(MissingTickerError) as exc:
        full.window(["AAA", "CCC", "DDD"])
    assert exc.value.tickers == ["CCC", "DDD"]
    with pytest.raises(EmptyPanelError, match="^no observations .* in 2022-01-03:2022-01-03"):
        full.window(["BBB"], D1, D1)


def test_wide_column_without_quotes_is_an_all_nan_row():
    csv_text = "date,AAA,BBB\n2022-01-03,100,\n2022-01-04,110,\n"
    panel = load_price_panel(io.StringIO(csv_text), make_universe(["AAA", "BBB"]))
    assert panel.dates == [D1, D2]
    assert np.isnan(panel.closes[1]).all()


@pytest.mark.parametrize(
    "text, line",
    [
        # a duplicate is reported before a later malformed row
        ("2022-01-03,AAA,1\n2022-01-03,AAA,2\n2022-01-04,AAA,oops\n", 3),
        ("2022-01-03,AAA,1\n2022-01-04,AAA,oops\n2022-01-03,AAA,2\n", 3),
        ("2022-01-03,AAA,1\n\n2022-01-04,BBB,2\n2022-01-03,AAA,1\n", 5),
        ("2022-01-04,AAA,1\n2022-01-03,AAA,1\n2022-01-04,AAA,2\n2022-01-03,AAA,2\n", 4),
        # ... and before a later row the csv module rejects (a field over its size limit)
        ("2022-01-03,AAA,1\n2022-01-03,AAA,2\n2022-01-04,AAA,1\n2022-01-05,AAA," + "1" * 200_000
         + "\n", 3),
        # one date spelt two ways is still one date
        ("2022-01-03,AAA,1\n 2022-01-04,AAA,1\n2022-01-04,BBB,1\n2022-01-04,AAA,2\n", 5),
        ("# note\n\n2022-01-03,AAA,1\n2022-01-04,AAA,x\n", 5),
    ],
    ids=["duplicate-then-bad-close", "bad-close-then-duplicate", "blank-line-counted",
         "first-of-two-duplicates", "duplicate-then-csv-error", "padded-date-repeat",
         "comment-line-counted"],
)
def test_first_faulty_line_is_reported(text, line):
    with pytest.raises(DataFormatError, match=f"line {line}:"):
        parse_price_file(io.StringIO("date,ticker,close\n" + text))


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (parse_price_file, "date,ticker,close\n2022-01-03,AAA,{}\n", "line 2: "),
        (read_weights_csv, "ticker,ewp\nAAA,{}\n", "line 2: "),
        (read_sector_results, "sector,ewp_test_return_pct,orp_test_return_pct,winner\n{},1,2,ORP\n",
         "line 2: "),
        (read_frontier_csv, "annual_risk,annual_return,sharpe,w_AAA,flag\n{},1,1,1,\n", "line 2: "),
        (parse_price_file, b"date,ticker,close\n2022-01-03,M\xe9tal,1\n",
         r"not valid UTF-8 \(byte 0xe9\)$"),
    ],
    ids=["prices", "weights", "sector-results", "frontier", "prices-not-utf8"],
)
def test_csv_module_errors_become_data_format_errors(reader, text, message):
    # line 2 holds one field over the csv module's size limit, or a byte
    # that is not UTF-8; a stream is named without a line
    if isinstance(text, bytes):
        stream = io.TextIOWrapper(io.BytesIO(text), encoding="utf-8", newline="")
    else:
        stream = io.StringIO(text.format("1" * (csv.field_size_limit() + 1)))
    with pytest.raises(DataFormatError, match="^<stream>: " + message):
        reader(stream)


# each reader of the one CSV dialect: its header, two valid rows, what to
# compare of its result, and its header with a blank name and with a repeat
_DIALECT_READERS = {
    "long-prices": (
        parse_price_file, "date,ticker,close", ["2022-01-03,AAA,100", "2022-01-04,AAA,101"],
        lambda panel: (panel.tickers, panel.dates, panel.closes.tolist()), None,
    ),
    "wide-prices": (
        parse_price_file, "date,AAA,BBB", ["2022-01-03,100,50", "2022-01-04,101,51"],
        lambda panel: (panel.tickers, panel.dates, panel.closes.tolist()),
        ("date,AAA, ", "date,AAA,AAA"),
    ),
    "weights": (
        read_weights_csv, "ticker,ewp,mrp", ["AAA,0.5,0.25", "BBB,0.5,0.75"],
        lambda books: {k: (v.tickers, v.weights.tolist()) for k, v in books.items()},
        ("ticker,ewp,", "ticker,ewp,ewp"),
    ),
    "frontier": (
        read_frontier_csv, "annual_risk,annual_return,sharpe,w_AAA,w_BBB,flag",
        ["0.1,0.2,1.9,0.5,0.5,mrp", "0.2,0.3,1.45,0.25,0.75,orp"],
        lambda out: (out[0], [(*row[:3], row[3].tolist(), row[4]) for row in out[1]]),
        ("annual_risk,annual_return,sharpe,w_AAA,w_,flag",
         "annual_risk,annual_return,sharpe,w_AAA,w_AAA,flag"),
    ),
    "sector-results": (
        read_sector_results, "sector,ewp_test_return_pct,orp_test_return_pct,winner",
        ["Auto,23.52,25.78,ORP", "Metal,14.38,41.97,ORP"],
        lambda results: [(r.sector, r.ewp_test_return, r.orp_test_return, r.winner)
                         for r in results],
        None,
    ),
}


@pytest.mark.parametrize("name", list(_DIALECT_READERS))
def test_every_reader_keeps_the_one_dialect(name):
    reader, header, rows, result, bad_headers = _DIALECT_READERS[name]

    def read(*lines):
        return reader(io.StringIO("\n".join(lines) + "\n"))

    expected = result(read(header, *rows))
    # a leading byte order mark, as Excel's "CSV UTF-8" writes, is dropped
    assert result(read("\ufeff" + header, *rows)) == expected
    width = header.count(",") + 1
    # skipped between rows and at the end: blank, whitespace-only, all-empty, comment
    for junk in ["", "   ", "," * (width - 1), "# a note, with a comma"]:
        assert result(read(header, rows[0], junk, rows[1], junk)) == expected, repr(junk)
    with pytest.raises(DataFormatError) as caught:
        read(header, rows[0], ",".join(rows[1].split(",")[:2]))
    assert str(caught.value) == f"<stream>: line 3: expected {width} fields, got 2"
    if bad_headers is not None:
        blank, repeated = bad_headers
        with pytest.raises(DataFormatError, match="^<stream>: line 1: column must be non-empty$"):
            read(blank, *rows)
        with pytest.raises(DataFormatError, match="^<stream>: line 1: duplicate column '(AAA|ewp)'$"):
            read(repeated, *rows)


def _round_trip(write, read, value):
    buf = io.StringIO()
    write(value, buf)
    buf.seek(0)
    return read(buf)


# each writer and its reader: what to write over a list of names, and the names read back
_NAME_WRITERS = {
    "long-prices": (
        lambda names: PricePanel(names, [D1], np.ones((len(names), 1))),
        write_long_csv, parse_price_file, lambda panel: panel.tickers,
    ),
    "weights": (
        lambda names: [equal_weights(names)] * 3,
        lambda books, dest: write_weights_csv(*books, dest), read_weights_csv,
        lambda books: books["ewp"].tickers,
    ),
    "summary": (
        lambda names: [SectorResult(name, 0.1, 0.2) for name in names],
        write_summary, read_sector_results, lambda results: [r.sector for r in results],
    ),
    "frontier": (
        lambda names: sample_frontier(
            [0.1] * len(names), CovarianceMatrix(names, np.eye(len(names)) * 1e-4), 20, 3),
        export_frontier, read_frontier_csv, lambda out: out[0],
    ),
}


@pytest.mark.parametrize("name", ["M&M", "BAJAJ-AUTO", "A,B", 'A"B', "Ünï"])
@pytest.mark.parametrize("pair", list(_NAME_WRITERS))
def test_a_name_reads_back_as_written(pair, name):
    build, write, read, names_of = _NAME_WRITERS[pair]
    names = [name, "ZZZ"]
    assert names_of(_round_trip(write, read, build(names))) == names


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SectorResult("  ", 0.1, 0.2), "sector name must be non-empty"),
        (lambda: PricePanel(["", "B"], [D1], np.ones((2, 1))), "ticker must be non-empty"),
        (lambda: WeightVector([" A"], np.ones(1)), "ticker ' A' has surrounding whitespace"),
        (lambda: CovarianceMatrix(["A "], np.eye(1)), "ticker 'A ' has surrounding whitespace"),
        (lambda: UniverseConfig(" Auto", ["AAA"], (D1, D1), (D2, D2)),
         "sector name ' Auto' has surrounding whitespace"),
        (lambda: ReturnSeries("", [D1], np.zeros(1)), "ticker must be non-empty"),
        (lambda: ReturnSeries(" X", [D1], np.zeros(1)), "ticker ' X' has surrounding whitespace"),
        (lambda: FrontierCloud([" A", "B"], *np.zeros((3, 1)), 0, "uniform"),
         "ticker ' A' has surrounding whitespace"),
        (lambda: WeightVector(["#X", "A"], np.full(2, 0.5)), "ticker '#X' reads as a CSV comment"),
        (lambda: sample_frontier([0.1, 0.2], CovarianceMatrix(["#X", "A"], np.eye(2))),
         "ticker '#X' reads as a CSV comment"),
    ],
    ids=["blank-sector", "empty-ticker", "padded-weight", "padded-covariance", "padded-sector",
         "empty-returns", "padded-returns", "padded-cloud", "comment-weight", "comment-cloud"],
)
def test_no_record_takes_a_name_that_would_not_read_back(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_a_byte_that_is_not_utf8_is_placed_on_its_line(tmp_path):
    # far past the decoder's first chunk, where the reader's count lags
    for reader, head, row, bad in [
        (parse_price_file, "date,ticker,close", "2022-01-03,T{},1", "2022-01-03,M\xe9tal,1"),
        (read_universe_config, "[universe]", "; note {}", "sector = M\xe9tal"),
    ]:
        lines = [row.format(i) for i in range(5000)]
        lines[4998] = bad
        path = tmp_path / f"{reader.__name__}.txt"
        path.write_bytes((head + "\n" + "\n".join(lines) + "\n").encode("latin-1"))
        with pytest.raises(DataFormatError) as caught:
            reader(path)
        assert str(caught.value) == f"{path}: line 5000: not valid UTF-8 (byte 0xe9)"


def test_a_byte_that_is_not_utf8_is_reported_before_an_earlier_bad_row(tmp_path):
    # the whole file is decoded before its first row is read
    lines = ["ticker,ewp", "AAA,x"] + [f"T{i},0" for i in range(4997)] + ["M\xe9tal,1"]
    path = tmp_path / "weights.csv"
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    with pytest.raises(DataFormatError) as caught:
        read_weights_csv(path)
    assert str(caught.value) == f"{path}: line 5000: not valid UTF-8 (byte 0xe9)"


def test_parse_reports_a_path_source_by_name(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("date,ticker,close\n2022-01-03,AAA,x\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"{path}: line 2"):
        parse_price_file(path)


def test_last_closes_look_back_from_a_date():
    closes = np.array([[10.0, np.nan, 12.0], [np.nan, np.nan, 6.0], [1.0, 2.0, np.nan]])
    panel = PricePanel(["AAA", "BBB", "CCC"], [D1, D2, D3], closes)
    assert panel.last_closes(["CCC", "AAA"], D2).tolist() == [2.0, 10.0]
    assert np.isnan(panel.last_closes(["BBB"], D2)).all()
    assert np.isnan(panel.last_closes(["AAA"], date(2021, 12, 31))).all()


def test_fill_gaps_with_opening_never_fills_from_later_quotes():
    closes = np.array([[np.nan, np.nan, 12.0, np.nan], [5.0, np.nan, 6.0, np.nan]])
    panel = PricePanel(["AAA", "BBB"], weekdays(date(2022, 1, 3), 4), closes)
    filled = fill_gaps(panel, np.array([9.0, np.nan]))
    assert filled.closes.tolist() == [[9.0, 9.0, 12.0, 12.0], [5.0, 5.0, 6.0, 6.0]]
    with pytest.raises(InsufficientDataError, match="AAA: no close before 2022-01-03"):
        fill_gaps(panel, np.array([np.nan, 4.0]))
    # an opening price never stands in for a ticker with no quote at all
    closes[0] = np.nan
    with pytest.raises(InsufficientDataError, match="AAA: no observations to fill from"):
        fill_gaps(PricePanel(["AAA", "BBB"], panel.dates, closes), np.array([9.0, 4.0]))


@pytest.mark.parametrize(
    "bbb, opening, message",
    [
        ([np.nan] * 3, None, "BBB: no observations to fill from"),
        ([np.nan] * 3, [1.0, 1.0, np.nan, 1.0], "BBB: no observations to fill from"),
        ([np.nan, 2.0, 3.0], [1.0, np.nan, np.nan, 1.0], "BBB: no close before 2022-01-03"),
    ],
    ids=["no-observations", "no-observations-first", "no-close-before-first"],
)
def test_fill_gaps_names_the_first_failing_ticker(bbb, opening, message):
    # CCC has a leading gap and DDD no quote, so both fail too where BBB does
    closes = np.array([[1.0, 2.0, 3.0], bbb, [np.nan, 2.0, 3.0], [np.nan] * 3])
    panel = PricePanel(["AAA", "BBB", "CCC", "DDD"], [D1, D2, D3], closes)
    with pytest.raises(InsufficientDataError, match=message):
        fill_gaps(panel, None if opening is None else np.array(opening))


def test_a_file_without_quotes():
    long_text, wide_text = "date,ticker,close\n\n", "date,AAA,BBB\n"
    dated_wide_text = "date,AAA,BBB\n2022-01-03,,\n2022-01-04,,\n"
    for text in (long_text, wide_text, dated_wide_text):
        with pytest.raises(EmptyPanelError, match="<stream>: no quotes"):
            parse_price_file(io.StringIO(text))
        # load_price_panel parses through parse_price_file, so it says the same
        with pytest.raises(EmptyPanelError, match="<stream>: no quotes"):
            load_price_panel(io.StringIO(text), make_universe(["AAA", "CCC"]), (D1, D2))



def test_universe_rejects_a_ticker_that_reads_as_a_comment(tmp_path):
    # configparser keeps a '#' that follows no whitespace, and weights.csv
    # would then hold a '#B' row that every reader skips as a comment
    ini = tmp_path / "u.ini"
    ini.write_text(
        "[universe]\nsector = Tech\ntickers = A,#B\n"
        "train = 2021-01-01:2021-12-31\ntest = 2022-01-01:2022-12-31\n",
        encoding="utf-8",
    )
    with pytest.raises(DataFormatError) as caught:
        read_universe_config(ini)
    assert str(caught.value) == f"{ini}: Tech: ticker '#B' reads as a CSV comment"


def _fetch(text):
    return fetch_history(["AAA"], D1, D3, transport=lambda url: text)


_RESULTS = "sector,ewp_test_return_pct,orp_test_return_pct,winner"
_FRONTIER = "annual_risk,annual_return,sharpe,w_AAA,flag"

# a blank line and a comment, skipped but counted; fetch's dialect skips
# blank rows and days without a quote, not comments
_JUNK = ["", "# a note, with a comma"]
_FETCH_JUNK = ["", "2022-01-04,n/d"]


@pytest.mark.parametrize(
    "read, lines, message",
    [
        # a row fault names its physical line
        (parse_price_file, ["date,ticker,close", "2022-01-03,AAA,1", *_JUNK, "2022-01-04,AAA,x"],
         "<stream>: line 5: bad close 'x' for AAA"),
        (parse_price_file, ["date,AAA", "2022-01-03,1", *_JUNK, "2022-01-03,2"],
         "<stream>: line 5: duplicate date 2022-01-03"),
        (read_weights_csv, ["ticker,ewp", "AAA,1", *_JUNK, "BBB,x"],
         "<stream>: line 5: could not convert string to float: 'x'"),
        (read_sector_results, [_RESULTS, "Auto,1,2,ORP", *_JUNK, "Metal,1,2,EWP"],
         "<stream>: line 5: winner 'EWP' contradicts returns"),
        (read_frontier_csv, [_FRONTIER, "0.1,0.2,1.9,1,mrp", *_JUNK, "0.1,0.2,1.9,1,mrp+orp"],
         "<stream>: line 5: flag 'mrp' repeats line 2"),
        (_fetch, ["Date,Close", "2022-01-03,1", *_FETCH_JUNK, "2022-01-05,inf"],
         "AAA: line 5: close 'inf' is not finite"),
        # a header fault names line 1
        (parse_price_file, ["day,ticker,close"],
         "<stream>: line 1: first column must be 'date', got ['day', 'ticker', 'close']"),
        (parse_price_file, ["date,AAA,AAA"], "<stream>: line 1: duplicate column 'AAA'"),
        (read_weights_csv, ["tick,ewp"], "<stream>: line 1: not a weights header"),
        (read_sector_results, ["sector,ewp"], "<stream>: line 1: not a sector-result header"),
        (read_frontier_csv, ["annual_risk,annual_return,sharpe,w_,flag"],
         "<stream>: line 1: column must be non-empty"),
        (_fetch, ["Date,Close," + "x" * (csv.field_size_limit() + 1)],
         f"AAA: line 1: field larger than field limit ({csv.field_size_limit()})"),
        # a header record split by a quoted newline ends, and is named, at line 2
        (parse_price_file, ['"date', '",A,A', "2022-01-03,1,2"],
         "<stream>: line 2: duplicate column 'A'"),
        # a fault of the whole file names no line
        (parse_price_file, ["date,ticker,close", *_JUNK], "<stream>: no quotes"),
        (read_weights_csv, ["ticker,ewp", *_JUNK], "<stream>: no weight rows"),
        (read_weights_csv, ["ticker,ewp", "AAA,0.5", *_JUNK],
         "<stream>: column 'ewp' sums to 0.500000, not a weight column"),
        (read_weights_csv, ["ticker,ewp", "AAA,-1", "BBB,2"],
         "<stream>: column 'ewp': weights must be finite and non-negative"),
        (read_sector_results, [], "<stream>: empty file"),
        (read_frontier_csv, [], "<stream>: empty file"),
        (_fetch, ["Date,Close", *_FETCH_JUNK], "AAA: no usable rows in response"),
        (_fetch, ["day,close"], "AAA: response has no date/close columns: ['day', 'close']"),
    ],
    ids=["long-row", "wide-row", "weights-row", "results-row", "frontier-row", "fetch-row",
         "long-header", "wide-header", "weights-header", "results-header", "frontier-header",
         "fetch-header", "split-header", "prices-file", "weights-no-rows", "weights-column-sum",
         "weights-column", "results-file", "frontier-file", "fetch-file", "fetch-columns"],
)
def test_a_reading_error_names_the_line_only_for_a_row_or_header(read, lines, message):
    text = "".join(line + "\n" for line in lines)
    source = text if read is _fetch else io.StringIO(text)
    with pytest.raises((DataFormatError, EmptyPanelError, FetchError)) as caught:
        read(source)
    assert str(caught.value) == message


# each anomaly edits the body rows of a long text (lists of cells) in place,
# into a text the array path must leave to the loop; "no-final-newline" is
# no anomaly but an edge the array path must take, as are "\r\n" line ends
def _quote(rng, rows):
    row = rng.choice(rows)
    k = rng.randrange(3)
    row[k] = f'"{row[k]}"'


def _carriage_return(rng, rows):
    # a "\r" that does not end a line
    row = rng.choice(rows)
    k = rng.randrange(3)
    row[k] = "\r" + row[k]


def _field_count(rng, rows):
    row = rng.choice(rows)
    row[:] = rng.choice([row[:2], row + ["x"], row + ["", ""]])


def _blank_line(rng, rows):
    rows.insert(rng.randrange(len(rows) + 1), [rng.choice(["", "   "])])


def _comment_line(rng, rows):
    rows.insert(rng.randrange(len(rows) + 1), rng.choice([["# a note"], ["#x", "y", "z"]]))


def _ticker(rng, rows):
    row = rng.choice(rows)
    row[1] = rng.choice(["", " ", f" {row[1]}", f"{row[1]}\t", "#" + row[1]])


def _close(rng, rows):
    rng.choice(rows)[2] = rng.choice(["x", "", "0", "-1", "nan", "inf", "1e999", "1,5"])


def _date(rng, rows):
    rng.choice(rows)[0] = rng.choice(["2022-13-01", "20220103", "2022-1-3", "", "#2022-01-03"])


def _date_spelling(rng, rows):
    rng.choice(rows)[0] = f" {rng.choice(rows)[0].strip()} "


def _repeat(rng, rows):
    row = rng.choice(rows)
    rows.insert(rng.randrange(len(rows) + 1), [row[0], row[1], "7"])


def _nul(rng, rows):
    rng.choice(rows)[1] += "\0"


def _long_field(rng, rows):
    # a close over the csv module's field limit that float() still reads
    rng.choice(rows)[2] = "0" * csv.field_size_limit() + "1"


_ANOMALIES = {
    "quote": _quote, "carriage-return": _carriage_return, "field-count": _field_count,
    "blank-line": _blank_line, "comment-line": _comment_line, "ticker": _ticker,
    "close": _close, "date": _date, "date-spelling": _date_spelling, "repeat": _repeat,
    "nul": _nul, "long-field": _long_field, "no-final-newline": None,
}


def _random_long_text(rng, anomaly=None, newline="\n"):
    tickers = rng.sample(["AAA", "BBB", "M&M", "C-1", "Métal", "X_Y"], rng.randint(1, 4))
    days = sorted(rng.sample(weekdays(date(2021, 12, 27), 30), rng.randint(1, 12)))
    spell = [lambda x: format(x, ".6g"), lambda x: format(x, ".3e"), lambda x: f" {x:.2f}",
             lambda x: format(round(x), "_d"), repr]
    rows = [[d.isoformat(), t, rng.choice(spell)(rng.uniform(0.5, 5000.0))]
            for t in tickers for d in days if rng.random() < 0.8]
    if not rows:
        rows = [[days[0].isoformat(), tickers[0], "1"]]
    rng.shuffle(rows)
    if anomaly is not None and _ANOMALIES[anomaly] is not None:
        _ANOMALIES[anomaly](rng, rows)
    text = "date,ticker,close" + newline + "".join(",".join(row) + newline for row in rows)
    return text.removesuffix(newline) if anomaly == "no-final-newline" else text


@pytest.mark.parametrize("chunk", [1, 40, _files._PIECE])
def test_array_path_gives_the_loop_panel_or_leaves_the_text_to_it(chunk):
    rng = random.Random(20261019 + chunk)
    for newline in ("\n", "\r\n"):
        taken = {name: 0 for name in [None, *_ANOMALIES]}
        with mock.patch.object(_files, "_PIECE", chunk):
            for _ in range(40):
                for anomaly in taken:
                    taken[anomaly] += check_array_path(_random_long_text(rng, anomaly, newline))
        # clean texts take the array path; every anomaly but a missing final
        # newline and a padded date cell leaves the text to the loop
        assert taken.pop(None) == taken.pop("no-final-newline") == 40, repr(newline)
        assert 0 < taken.pop("date-spelling") < 40, repr(newline)
        assert taken == dict.fromkeys(taken, 0), repr(newline)


def _three_chunks():
    """A clean long text over three chunks, and the offset of its first body line."""
    days = weekdays(date(2000, 1, 3), 1800)
    lines = [f"{d},T{i:02d},{100 + i + j / 8}" for j, d in enumerate(days) for i in range(20)]
    text = "date,ticker,close\n" + "".join(line + "\n" for line in lines)
    assert len(text) > 3 * _files._PIECE
    return text, text.index("\n") + 1


def test_a_repeat_two_chunks_after_its_first_row_is_named_by_the_loop():
    text, body = _three_chunks()
    first = text[body:text.index("\n", body)]  # 2000-01-03,T00,100.0, on line 2
    at = text.index("\n", body + 2 * _files._PIECE + 1000) + 1  # inside chunk 3
    text = text[:at] + first.replace(",100.0", ",7") + "\n" + text[at:]
    assert check_array_path(text) is False
    with pytest.raises(DataFormatError) as caught:
        parse_price_file(io.StringIO(text))
    line = text.count("\n", 0, at) + 1
    assert str(caught.value) == f"<stream>: line {line}: duplicate observation for T00 on 2000-01-03"


@pytest.mark.parametrize("line", ["", "   ", "# a note", "#2000-01-03,T00,7"],
                         ids=["blank", "spaces", "comment", "comment-with-two-commas"])
@pytest.mark.parametrize("where", ["second-chunk", "last-line"])
def test_a_blank_or_comment_line_past_the_first_chunk_is_skipped_by_the_loop(line, where):
    clean, body = _three_chunks()
    if where == "last-line":
        at = len(clean)
    else:
        at = clean.index("\n", body + _files._PIECE + 1000) + 1
    text = clean[:at] + line + "\n" + clean[at:]
    assert check_array_path(text) is False
    panel, expected = parse_price_file(io.StringIO(text)), parse_price_file(io.StringIO(clean))
    assert panel.tickers == expected.tickers
    assert panel.dates == expected.dates
    assert panel.closes.tobytes() == expected.closes.tobytes()


def test_a_bad_close_on_a_last_line_without_newline_is_named_by_the_loop():
    text, _ = _three_chunks()
    text = text[:-1].rsplit(",", 1)[0] + ",x"
    assert check_array_path(text) is False
    with pytest.raises(DataFormatError) as caught:
        parse_price_file(io.StringIO(text))
    line = text.count("\n") + 1
    assert str(caught.value) == f"<stream>: line {line}: bad close 'x' for T19"


def test_a_line_across_a_chunk_boundary_is_read_whole():
    text, body = _three_chunks()
    # the first chunk takes whole lines up to the newline at or after `cut`,
    # so the line from `lo` to `hi` is cut by a plain split at `cut`
    cut = body + _files._PIECE
    lo, hi = text.rindex("\n", 0, cut) + 1, text.index("\n", cut)
    assert lo < cut < hi
    assert check_array_path(text) is True
    day, ticker, close = text[lo:hi].split(",")
    panel = parse_price_file(io.StringIO(text))
    assert panel.closes[panel.tickers.index(ticker), panel.dates.index(date.fromisoformat(day))] \
        == float(close)


def test_a_clean_long_file_never_reaches_the_loop(tmp_path, monkeypatch):
    def loop(reader):
        raise AssertionError("a clean long file went to the loop")

    monkeypatch.setattr(market_data, "_parse_long", loop)
    path = tmp_path / "prices.csv"
    write_long_csv(random_panel(["AAA", "BBB", "CCC"], 300, seed=5), path)
    from_path = parse_price_file(path)
    with open(path, encoding="utf-8", newline="") as fh:
        from_stream = parse_price_file(fh)
    assert from_path.tickers == from_stream.tickers == ["AAA", "BBB", "CCC"]
    assert from_path.dates == from_stream.dates
    assert from_path.closes.tobytes() == from_stream.closes.tobytes()
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    from_bom = parse_price_file(bom)
    assert (from_bom.tickers, from_bom.dates) == (from_path.tickers, from_path.dates)
    assert from_bom.closes.tobytes() == from_path.closes.tobytes()
    panel = parse_price_file(io.StringIO(LONG_CSV))
    assert panel.closes.tolist() == [[100.0, 110.0, 99.0], [50.0, 51.0, 52.0]]


def test_a_clean_crlf_long_file_never_reaches_the_loop(tmp_path, monkeypatch):
    text, _ = _three_chunks()
    crlf = text.replace("\n", "\r\n")
    path = tmp_path / "prices.csv"
    path.write_bytes(crlf.encode())
    expected = parse_price_file(io.StringIO(text))

    def loop(reader):
        raise AssertionError("a clean \\r\\n long file went to the loop")

    monkeypatch.setattr(market_data, "_parse_long", loop)
    for panel in (parse_price_file(path), parse_price_file(io.StringIO(crlf))):
        assert panel.tickers == expected.tickers
        assert panel.dates == expected.dates
        assert panel.closes.tobytes() == expected.closes.tobytes()


_UNIVERSE_INI = (
    "[universe]\nsector = Auto\ntickers = AAA BBB\n"
    "train = 2021-01-01:2021-12-31\ntest = 2022-01-01:2022-12-31\n"
)


def _counted_opens(monkeypatch):
    """Every path the reading modules open, and the arguments of every read of it."""
    from sectorfolio import frontier, reports

    opens, reads = [], []

    class Counted(io.BytesIO):
        def read(self, *args):
            reads.append(args)
            return super().read(*args)

    def counting_open(path, *args, **kwargs):
        opens.append(path)
        with open(path, *args, **kwargs) as fh:
            return Counted(fh.read())

    for module in (_files, market_data, reports, frontier):
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    return opens, reads


@pytest.mark.parametrize("text", [LONG_CSV, LONG_CSV + "2022-01-06,AAA,x\n", WIDE_CSV,
                                  LONG_CSV + "2022-01-06,AAA,x\nM\xe9tal\n"],
                         ids=["long", "long-bad-close", "wide", "long-not-utf8"])
def test_a_price_file_is_opened_and_read_once(tmp_path, monkeypatch, text):
    opens, reads = _counted_opens(monkeypatch)
    path = tmp_path / "prices.csv"
    path.write_bytes(text.encode("latin-1"))
    if text.endswith("tal\n"):
        with pytest.raises(DataFormatError) as caught:
            parse_price_file(path)
        assert str(caught.value) == f"{path}: line 9: not valid UTF-8 (byte 0xe9)"
    elif text.endswith(",x\n"):
        with pytest.raises(DataFormatError) as caught:
            parse_price_file(path)
        assert str(caught.value) == f"{path}: line 8: bad close 'x' for AAA"
    else:
        parse_price_file(path)
    assert opens == [path]
    assert reads == [()]


_READERS = {
    "weights": read_weights_csv, "frontier": read_frontier_csv,
    "sector-results": read_sector_results, "universe": read_universe_config,
}


@pytest.mark.parametrize("utf8", [True, False], ids=["utf8", "not-utf8"])
@pytest.mark.parametrize("name", list(_READERS))
def test_every_other_reader_opens_and_reads_a_path_once(tmp_path, monkeypatch, name, utf8):
    if name == "universe":
        text = _UNIVERSE_INI
    else:
        _, header, rows, *_ = _DIALECT_READERS[name]
        text = "\n".join([header, *rows]) + "\n"
    opens, reads = _counted_opens(monkeypatch)
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode() + (b"" if utf8 else b"# caf\xe9\n"))
    if utf8:
        _READERS[name](path)
    else:
        with pytest.raises(DataFormatError) as caught:
            _READERS[name](path)
        line = text.count("\n") + 1
        assert str(caught.value) == f"{path}: line {line}: not valid UTF-8 (byte 0xe9)"
    assert opens == [path]
    assert reads == [()]
