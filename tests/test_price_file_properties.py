"""Property tests for the price-file parser."""

import csv
import io
from datetime import date
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sectorfolio import (  # noqa: E402
    DataFormatError,
    EmptyPanelError,
    MissingTickerError,
    PricePanel,
    UniverseConfig,
    load_price_panel,
    parse_price_file,
    write_long_csv,
)
from sectorfolio import _files  # noqa: E402

from helpers import check_array_path  # noqa: E402

# fragments of real price files, so that many draws get past the header
_cell = st.one_of(
    st.sampled_from(["2022-01-03", "2022-01-04", " 2022-01-05", "20220106", "AAA", "BBB",
                     "100", "1e2", "5.5", "-1", "0", "nan", "inf", "", " ", '"']),
    st.text(max_size=5),
)
_header = st.one_of(
    st.sampled_from(["date,ticker,close", "Date, Ticker ,CLOSE", "date,AAA,BBB", "date,AAA",
                     "date,AAA,AAA", "date,,AAA", "date", "ticker,date,close"]),
    st.text(max_size=12),
)
_text = st.one_of(
    st.builds(lambda header, lines: "\n".join([header, *lines]) + "\n",
              _header, st.lists(st.lists(_cell, max_size=4).map(",".join), max_size=8)),
    st.text(max_size=60),
)
_tickers = st.text(alphabet="ABCXYZ019&-_", min_size=1, max_size=5)


@st.composite
def _panels(draw):
    """Panels in which every ticker and every date has at least one quote."""
    tickers = draw(st.lists(_tickers, min_size=1, max_size=4, unique=True))
    dates = sorted(draw(st.lists(st.dates(date(1990, 1, 1), date(2030, 12, 31)),
                                 min_size=1, max_size=8, unique=True)))
    n, d = len(tickers), len(dates)
    closes = np.array(draw(st.lists(st.floats(1e-6, 1e9), min_size=n * d, max_size=n * d)))
    quoted = np.array(draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d)))
    quoted = quoted.reshape(n, d)
    for k in range(max(n, d)):
        quoted[k % n, k % d] = True
    return PricePanel(tickers, dates, np.where(quoted, closes.reshape(n, d), np.nan))


def _wide_text(panel: PricePanel) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date", *panel.tickers])
    for j, d in enumerate(panel.dates):
        writer.writerow([d.isoformat(), *("" if np.isnan(c) else format(c, ".12g")
                                          for c in panel.closes[:, j])])
    return buf.getvalue()


def _long_text(panel: PricePanel) -> str:
    buf = io.StringIO()
    write_long_csv(panel, buf)
    return buf.getvalue()


@given(text=_text, tickers=st.lists(st.sampled_from(["AAA", "BBB"]), min_size=1, unique=True))
@settings(max_examples=200, deadline=None)
def test_any_text_is_a_panel_or_a_domain_error(text, tickers):
    universe = UniverseConfig("Fuzz", tickers, (date(2000, 1, 1), date(2000, 1, 2)),
                              (date(2000, 1, 3), date(2000, 1, 4)))
    try:
        panel = load_price_panel(io.StringIO(text), universe)
    except (DataFormatError, MissingTickerError, EmptyPanelError):
        return
    assert panel.tickers == tickers
    quoted = ~np.isnan(panel.closes)
    assert np.all(panel.closes[quoted] > 0.0) and np.all(np.isfinite(panel.closes[quoted]))
    assert quoted.any(axis=0).all()


@given(panel=_panels())
@settings(max_examples=80, deadline=None)
def test_write_long_csv_round_trips(panel):
    again = parse_price_file(io.StringIO(_long_text(panel))).window(panel.tickers)
    assert again.tickers == panel.tickers
    assert again.dates == panel.dates
    assert np.array_equal(np.isnan(again.closes), np.isnan(panel.closes))
    assert np.allclose(again.closes, panel.closes, rtol=1e-11, atol=0.0, equal_nan=True)


@given(panel=_panels())
@settings(max_examples=80, deadline=None)
def test_long_and_wide_files_give_equal_panels(panel):
    from_long = parse_price_file(io.StringIO(_long_text(panel))).window(panel.tickers)
    from_wide = parse_price_file(io.StringIO(_wide_text(panel))).window(panel.tickers)
    assert from_long.tickers == from_wide.tickers
    assert from_long.dates == from_wide.dates
    assert np.array_equal(from_long.closes, from_wide.closes, equal_nan=True)


# cells that a clean long file never holds, or holds only in some places
_odd_cell = st.one_of(
    st.sampled_from(["", " ", '"', '"AAA"', "\r", "\0", "#", "#AAA", "x", "0", "-1", "nan",
                     "inf", "1e999", "1_0", " 5", "2022-01-03", " 2022-01-03", "20220103",
                     "AAA", " AAA", ",", "\n", "7"]),
    st.text(max_size=4),
)


@st.composite
def _long_texts(draw):
    """Long-layout texts of a panel's rows, in any order, some of them edited,
    with ``\n`` or ``\r\n`` line ends."""
    panel = draw(_panels())
    rows = [[d.isoformat(), t, format(c, ".12g")]
            for t, row in zip(panel.tickers, panel.closes) for d, c in zip(panel.dates, row)
            if not np.isnan(c)]
    rows = [list(row) for row in draw(st.permutations(rows))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["cell", "repeat", "line"]))
        if edit == "cell":
            k = draw(st.integers(0, 2))
            rows[at][k:k + 1] = [draw(_odd_cell)]
        elif edit == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), [*rows[at][:2], draw(_odd_cell)])
        else:
            rows.insert(at, draw(st.lists(_odd_cell, max_size=4)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = "date,ticker,close" + newline + "".join(",".join(row) + newline for row in rows)
    return text if draw(st.booleans()) else text.removesuffix(newline)


@given(text=_long_texts(), chunk=st.sampled_from([1, 16, _files._PIECE]))
@settings(max_examples=300, deadline=None)
def test_array_path_gives_the_loop_panel_or_leaves_the_text_to_it(text, chunk):
    with mock.patch.object(_files, "_PIECE", chunk):
        check_array_path(text)


@given(text=st.text(alphabet='ab,"\r\n', max_size=40), size=st.sampled_from([1, 2, 5, 16]))
@settings(max_examples=300, deadline=None)
def test_a_source_text_has_the_lines_of_a_file(text, size):
    as_file = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="")
    with mock.patch.object(_files, "_PIECE", size):
        assert list(_files.lines(text)) == list(as_file)
