"""Buy-and-hold backtests with fractional shares."""

import math
from datetime import date

import numpy as np
import pytest

from sectorfolio import (
    AlignmentError,
    InsufficientDataError,
    MODES,
    PricePanel,
    WeightVector,
    backtest_from_panel,
    equal_weights,
    run_backtest,
    write_backtest_csv,
)

from helpers import random_panel, weekdays


def test_modes_enumeration():
    assert MODES == ("simplex", "fixed-amount-per-stock")


def test_flat_prices_return_zero():
    report = run_backtest(
        equal_weights(["A", "B"]), {"A": 10.0, "B": 20.0}, {"A": 10.0, "B": 20.0}, 1000.0
    )
    assert report.holding_return == 0.0
    assert report.initial_capital == 1000.0
    assert report.terminal_capital == 1000.0


def test_single_stock_ten_percent_gain():
    w = WeightVector(["A"], np.array([1.0]))
    report = run_backtest(w, {"A": 100.0}, {"A": 110.0}, 50_000.0)
    assert report.holding_return == pytest.approx(0.10, rel=1e-12)
    assert report.allocations[0].shares == pytest.approx(500.0, rel=1e-15)


def test_doubling_prices_double_the_book():
    panel = random_panel(["A", "B", "C"], 2, seed=1)
    doubled = PricePanel(
        panel.tickers, panel.dates, np.column_stack([panel.closes[:, 0], panel.closes[:, 0] * 2.0])
    )
    report = backtest_from_panel(equal_weights(panel.tickers), doubled, 1000.0)
    assert report.holding_return == pytest.approx(1.0, rel=1e-12)


def test_allocation_bookkeeping():
    w = WeightVector(["A", "B"], np.array([0.25, 0.75]))
    report = run_backtest(w, {"A": 50.0, "B": 200.0}, {"A": 55.0, "B": 180.0}, 10_000.0)
    a, b = report.allocations
    assert a.ticker == "A" and b.ticker == "B"
    assert a.amount_invested == pytest.approx(2500.0)
    assert b.amount_invested == pytest.approx(7500.0)
    assert a.shares == pytest.approx(50.0)
    assert a.terminal_value == pytest.approx(2750.0)
    assert b.terminal_value == pytest.approx(6750.0)
    assert report.terminal_capital == pytest.approx(9500.0)
    assert report.holding_return == pytest.approx(-0.05, rel=1e-12)


def test_holding_return_independent_of_capital():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        tickers = [f"T{i}" for i in range(n)]
        raw = rng.random(n) + 0.05
        w = WeightVector(tickers, raw / raw.sum())
        buy = dict(zip(tickers, rng.uniform(10, 5000, n)))
        sell = dict(zip(tickers, rng.uniform(10, 5000, n)))
        r1 = run_backtest(w, buy, sell, 1.0).holding_return
        r2 = run_backtest(w, buy, sell, 3_141_592.0).holding_return
        assert r1 == pytest.approx(r2, rel=1e-12)


def test_uniform_price_scaling_moves_return_exactly():
    rng = np.random.default_rng(31)
    tickers = ["A", "B", "C"]
    for _ in range(50):
        raw = rng.random(3) + 0.1
        w = WeightVector(tickers, raw / raw.sum())
        buy = dict(zip(tickers, rng.uniform(50, 500, 3)))
        k = float(rng.uniform(0.2, 3.0))
        sell = {t: p * k for t, p in buy.items()}
        report = run_backtest(w, buy, sell, 10_000.0)
        assert report.holding_return == pytest.approx(k - 1.0, rel=1e-12)


def test_terminal_value_linear_in_weights():
    rng = np.random.default_rng(37)
    tickers = ["A", "B", "C", "D"]
    buy = dict(zip(tickers, rng.uniform(50, 500, 4)))
    sell = dict(zip(tickers, rng.uniform(50, 500, 4)))
    raw1, raw2 = rng.random(4) + 0.05, rng.random(4) + 0.05
    w1, w2 = raw1 / raw1.sum(), raw2 / raw2.sum()
    alpha = 0.3
    blend = WeightVector(tickers, alpha * w1 + (1 - alpha) * w2)
    t1 = run_backtest(WeightVector(tickers, w1), buy, sell, 1000.0).terminal_capital
    t2 = run_backtest(WeightVector(tickers, w2), buy, sell, 1000.0).terminal_capital
    t_blend = run_backtest(blend, buy, sell, 1000.0).terminal_capital
    assert t_blend == pytest.approx(alpha * t1 + (1 - alpha) * t2, rel=1e-12)


def test_fixed_amount_mode_books_equal_tickets():
    w = equal_weights(["A", "B", "C", "D"])
    buy = {t: 100.0 for t in w.tickers}
    sell = {t: 120.0 for t in w.tickers}
    report = run_backtest(
        w, buy, sell, 100_000.0, mode="fixed-amount-per-stock", nominal_universe_size=5
    )
    # four retained names out of a nominal five: one ticket stays in cash
    assert report.initial_capital == pytest.approx(80_000.0)
    assert all(a.amount_invested == pytest.approx(20_000.0) for a in report.allocations)
    assert all(a.weight == pytest.approx(0.2) for a in report.allocations)
    assert report.holding_return == pytest.approx(0.20, rel=1e-12)


def test_fixed_amount_mode_defaults_nominal_to_book_size():
    w = equal_weights(["A", "B"])
    report = run_backtest(
        w, {"A": 10.0, "B": 10.0}, {"A": 10.0, "B": 10.0}, 1000.0,
        mode="fixed-amount-per-stock",
    )
    assert report.initial_capital == pytest.approx(1000.0)
    assert report.allocations[0].amount_invested == pytest.approx(500.0)


def test_fixed_amount_mode_ignores_stored_weights():
    uneven = WeightVector(["A", "B"], np.array([0.9, 0.1]))
    report = run_backtest(
        uneven, {"A": 10.0, "B": 10.0}, {"A": 20.0, "B": 10.0}, 1000.0,
        mode="fixed-amount-per-stock",
    )
    assert report.allocations[0].amount_invested == report.allocations[1].amount_invested
    assert report.holding_return == pytest.approx(0.5, rel=1e-12)


def test_backtest_argument_validation():
    w = equal_weights(["A", "B"])
    prices = {"A": 10.0, "B": 20.0}
    with pytest.raises(ValueError, match="capital"):
        run_backtest(w, prices, prices, 0.0)
    with pytest.raises(ValueError, match="mode"):
        run_backtest(w, prices, prices, 100.0, mode="rebalanced")
    with pytest.raises(ValueError, match="nominal"):
        run_backtest(w, prices, prices, 100.0, mode="fixed-amount-per-stock",
                     nominal_universe_size=0)
    with pytest.raises(AlignmentError):
        run_backtest(w, {"A": 10.0}, prices, 100.0)
    with pytest.raises(ValueError, match="B"):
        run_backtest(w, {"A": 10.0, "B": -1.0}, prices, 100.0)


@pytest.mark.parametrize("capital", [math.nan, math.inf, -math.inf])
def test_backtest_rejects_capital_that_is_not_finite(capital):
    w = equal_weights(["A", "B"])
    prices = {"A": 10.0, "B": 20.0}
    with pytest.raises(ValueError, match="capital must be positive and finite"):
        run_backtest(w, prices, prices, capital)


def test_fixed_amount_mode_rejects_a_nominal_size_below_the_book():
    # two tickets of 100/2 on three tickers would deploy 150 of 100
    w = equal_weights(["A", "B", "C"])
    prices = {"A": 10.0, "B": 20.0, "C": 30.0}
    with pytest.raises(ValueError, match="nominal universe size 2 is below the book's 3 tickers"):
        run_backtest(w, prices, prices, 100.0, mode="fixed-amount-per-stock",
                     nominal_universe_size=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_backtest_names_the_ticker_of_a_price_that_is_not_finite(bad):
    w = equal_weights(["A", "B"])
    with pytest.raises(ValueError, match="buy prices: B is not finite"):
        run_backtest(w, {"A": 10.0, "B": bad}, {"A": 10.0, "B": 20.0}, 100.0)
    with pytest.raises(ValueError, match="sell prices: B is not finite"):
        run_backtest(w, [10.0, 20.0], [10.0, bad], 100.0)


def test_backtest_from_panel_reads_the_book_out_of_a_wider_panel():
    # the panel holds two tickers outside the book, and the book's two in another order
    dates = weekdays(date(2022, 1, 3), 3)
    closes = np.array([[5.0, 6.0, 7.0], [20.0, 21.0, 25.0], [1.0, 2.0, 3.0], [10.0, 9.0, 12.5]])
    panel = PricePanel(["Z", "B", "Y", "A"], dates, closes)
    book = WeightVector(["A", "B"], np.array([0.3, 0.7]))
    for mode, nominal in (("simplex", None), ("fixed-amount-per-stock", 4)):
        expected = run_backtest(book, {"B": 20.0, "A": 10.0}, {"A": 12.5, "B": 25.0},
                                1000.0, mode, nominal)
        assert backtest_from_panel(book, panel, 1000.0, mode, nominal) == expected


def test_backtest_from_panel_uses_first_and_last_dates():
    dates = weekdays(date(2022, 1, 3), 5)
    closes = np.array([[100.0, 90.0, 95.0, 105.0, 130.0]])
    panel = PricePanel(["A"], dates, closes)
    report = backtest_from_panel(WeightVector(["A"], np.array([1.0])), panel, 1000.0)
    assert report.holding_return == pytest.approx(0.30, rel=1e-12)


def test_backtest_from_panel_rejects_gaps_and_short_panels():
    dates = weekdays(date(2022, 1, 3), 2)
    gappy = PricePanel(["A"], dates, np.array([[100.0, np.nan]]))
    with pytest.raises(ValueError, match="gaps"):
        backtest_from_panel(WeightVector(["A"], np.array([1.0])), gappy, 1000.0)
    single = PricePanel(["A"], dates[:1], np.array([[100.0]]))
    with pytest.raises(InsufficientDataError):
        backtest_from_panel(WeightVector(["A"], np.array([1.0])), single, 1000.0)


def test_write_backtest_csv_layout(tmp_path):
    w = WeightVector(["A", "B"], np.array([0.25, 0.75]))
    report = run_backtest(w, {"A": 50.0, "B": 200.0}, {"A": 55.0, "B": 180.0}, 10_000.0)
    path = tmp_path / "backtest.csv"
    write_backtest_csv(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "ticker,weight,buy_price,amount_invested,shares,sell_price,terminal_value,return_pct"
    )
    assert lines[1] == "A,0.250000,50.00,2500.00,50.00,55.00,2750.00,"
    assert lines[2] == "B,0.750000,200.00,7500.00,37.50,180.00,6750.00,"
    assert lines[3] == "TOTAL,1.000000,,10000.00,,,9500.00,-5.00"
