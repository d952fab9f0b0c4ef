"""Remote close-price download, exercised through a canned transport."""

import csv
import io
from datetime import date

import pytest

import sectorfolio
from sectorfolio import FetchError, load_price_panel, write_long_csv
from sectorfolio.fetch import DEFAULT_URL_TEMPLATE, _http_get, fetch_history
from sectorfolio.market_data import UniverseConfig

START, END = date(2022, 1, 1), date(2022, 1, 10)

PAYLOAD = (
    "Date,Open,High,Low,Close,Volume\n"
    "2022-01-03,99,101,98,100.5,1200\n"
    "2022-01-04,100,103,100,102,900\n"
    "2022-01-05,102,102,99,99.75,1100\n"
)


def canned(payloads):
    """Transport mapping each requested URL through `payloads`, recording URLs."""
    calls = []

    def transport(url):
        calls.append(url)
        return payloads[len(calls) - 1]

    return transport, calls


def test_fetch_parses_date_and_close_columns():
    transport, calls = canned([PAYLOAD])
    panel = fetch_history(["AAA"], START, END, transport=transport)
    assert panel.tickers == ["AAA"]
    assert panel.dates == [date(2022, 1, 3), date(2022, 1, 4), date(2022, 1, 5)]
    assert panel.closes[0].tolist() == [100.5, 102.0, 99.75]
    assert len(calls) == 1
    # a leading byte order mark is dropped before the header is read
    transport, _ = canned(["\ufeff" + PAYLOAD])
    with_bom = fetch_history(["AAA"], START, END, transport=transport)
    assert (with_bom.dates, with_bom.closes.tolist()) == (panel.dates, panel.closes.tolist())


def test_fetch_builds_urls_from_template():
    transport, calls = canned([PAYLOAD, PAYLOAD])
    fetch_history(["M&M", "SBIN"], START, END, suffix=".in", transport=transport)
    assert calls[0] == (
        "https://stooq.com/q/d/l/?s=m%26m.in&d1=20220101&d2=20220110&i=d"
    )
    assert calls[1] == (
        "https://stooq.com/q/d/l/?s=sbin.in&d1=20220101&d2=20220110&i=d"
    )
    assert DEFAULT_URL_TEMPLATE.count("{symbol}") == 1


def test_fetch_custom_url_template():
    transport, calls = canned([PAYLOAD])
    fetch_history(
        ["AAA"], START, END,
        url_template="http://mirror.local/{symbol}?a={start}&b={end}",
        transport=transport,
    )
    assert calls == ["http://mirror.local/aaa?a=20220101&b=20220110"]


def test_fetch_skips_no_data_and_nonpositive_rows():
    payload = (
        "Date,Close\n"
        "2022-01-03,100\n"
        "2022-01-04,N/D\n"
        "2022-01-05,-3\n"
        "2022-01-06,0\n"
        "2022-01-07,104\n"
    )
    transport, _ = canned([payload])
    panel = fetch_history(["AAA"], START, END, transport=transport)
    assert panel.tickers == ["AAA"]
    assert panel.dates == [date(2022, 1, 3), date(2022, 1, 7)]
    assert panel.closes[0].tolist() == [100.0, 104.0]


@pytest.mark.parametrize(
    "payload",
    [
        "",
        "Date,Open\n2022-01-03,10\n",
        "Date,Close\n2022-01-03,n/d\n",
        "Date,Close\n2022-01-03,zounds\n",
        "Date,Close\n2022-01-03,10\n2022-01-03,11\n",
        "Date,Close\n20220107,100\n2022-01-10,101\n",
        "Date,Close\n2022-01-03," + "1" * (csv.field_size_limit() + 1) + "\n",
        "Date,Close\n2022-01-03,10\n2022-01-04,inf\n",
    ],
    ids=["empty", "no-close-column", "all-placeholder", "bad-number", "duplicate-date",
         "basic-iso-date", "over-long-field", "infinite-close"],
)
def test_fetch_rejects_unusable_payloads(payload):
    transport, _ = canned([payload])
    with pytest.raises(FetchError):
        fetch_history(["AAA"], START, END, transport=transport)


def test_fetch_names_a_short_row_by_its_line():
    transport, _ = canned(["Date,Open,Close\n2022-01-03,10,10\n2022-01-04,10\n"])
    with pytest.raises(FetchError) as caught:
        fetch_history(["AAA"], START, END, transport=transport)
    assert str(caught.value) == "AAA: line 3: expected 3 fields, got 2"


def test_fetch_names_a_row_wider_than_its_header_by_its_line():
    transport, _ = canned(["Date,Close\n2022-01-03,10\n2022-01-04,10,11\n"])
    with pytest.raises(FetchError) as caught:
        fetch_history(["AAA"], START, END, transport=transport)
    assert str(caught.value) == "AAA: line 3: expected 2 fields, got 3"


def test_fetch_skips_a_comment_row():
    transport, _ = canned(["Date,Close\n# as of 2022-01-05\n2022-01-03,10\n#2022-01-04,11\n"])
    panel = fetch_history(["AAA"], START, END, transport=transport)
    assert (panel.dates, panel.closes[0].tolist()) == ([date(2022, 1, 3)], [10.0])


def test_fetch_names_the_url_it_could_not_read(tmp_path):
    template = f"file://{tmp_path}/{{symbol}}.csv"
    with pytest.raises(FetchError) as caught:
        fetch_history(["AAA"], START, END, url_template=template)
    assert str(caught.value).startswith(f"file://{tmp_path}/aaa.csv: <urlopen error ")


def test_the_default_transport_sends_the_package_version(monkeypatch):
    sent = []

    def urlopen(req, timeout):
        sent.append((req.get_header("User-agent"), timeout))
        return io.BytesIO(PAYLOAD.encode("utf-8"))

    monkeypatch.setattr(sectorfolio.fetch.request, "urlopen", urlopen)
    assert _http_get("https://quotes.invalid/aaa", 7.0) == PAYLOAD
    assert sent == [(f"sectorfolio/{sectorfolio.__version__}", 7.0)]


def test_fetch_rejects_inverted_window():
    with pytest.raises(ValueError):
        fetch_history(["AAA"], END, START, transport=lambda url: PAYLOAD)


@pytest.mark.parametrize(
    "tickers, message",
    [(["AAA", "BBB", "AAA"], "duplicate ticker 'AAA'"),
     (["AAA", " "], "ticker must be non-empty"),
     (["AAA", " AAA"], "ticker ' AAA' has surrounding whitespace")],
    ids=["repeated", "blank", "padded"],
)
def test_fetch_refuses_a_ticker_before_any_request(tickers, message):
    transport, calls = canned([PAYLOAD, PAYLOAD, PAYLOAD])
    with pytest.raises(ValueError) as caught:
        fetch_history(tickers, START, END, transport=transport)
    assert str(caught.value) == message
    assert calls == []


def test_fetched_series_feed_the_loader():
    transport, _ = canned([PAYLOAD])
    series = fetch_history(["AAA"], START, END, transport=transport)
    buf = io.StringIO()
    write_long_csv(series, buf)
    buf.seek(0)
    universe = UniverseConfig(
        sector="X",
        tickers=["AAA"],
        train_window=(date(2021, 1, 1), date(2021, 12, 31)),
        test_window=(date(2022, 1, 1), date(2022, 12, 31)),
    )
    panel = load_price_panel(buf, universe)
    assert panel.n_dates == 3
    assert panel.closes[0].tolist() == [100.5, 102.0, 99.75]
