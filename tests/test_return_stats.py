"""Return, volatility, and covariance statistics."""

import hashlib
import math
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import sectorfolio
from sectorfolio import (
    TRADING_DAYS_PER_YEAR,
    CovarianceMatrix,
    DegenerateAssetError,
    InsufficientDataError,
    PricePanel,
    PriceSeries,
    ReturnSeries,
    annual_volatility,
    annualize_return,
    apply_missing_data_policy,
    asset_stats,
    correlation_matrix,
    covariance_matrix,
    daily_returns,
    daily_volatility,
)

from helpers import random_panel, weekdays


def series(closes, ticker="AAA"):
    return PriceSeries(ticker, weekdays(date(2022, 1, 3), len(closes)), np.array(closes, float))


def returns_of(values, ticker="AAA"):
    return ReturnSeries(ticker, weekdays(date(2022, 1, 3), len(values)), np.array(values, float))


def test_trading_year_is_250_days():
    assert TRADING_DAYS_PER_YEAR == 250


def test_daily_returns_simple_changes():
    rs = daily_returns(series([100.0, 110.0, 99.0]))
    assert rs.returns == pytest.approx([0.10, -0.10], abs=1e-12)
    assert rs.dates == weekdays(date(2022, 1, 3), 3)[1:]


def test_daily_returns_constant_prices_are_zero():
    rs = daily_returns(series([50.0] * 6))
    assert np.array_equal(rs.returns, np.zeros(5))


def test_daily_returns_single_pair():
    rs = daily_returns(series([830.0, 1249.0]))
    assert rs.returns[0] == pytest.approx(1249.0 / 830.0 - 1.0, rel=1e-15)


def test_daily_returns_need_two_prices():
    with pytest.raises(InsufficientDataError):
        daily_returns(series([100.0]))


def test_annualize_return_scales_mean_by_250():
    assert annualize_return(returns_of([0.001] * 10)) == pytest.approx(0.25, abs=1e-15)
    assert annualize_return(returns_of([0.0] * 7)) == 0.0
    mixed = returns_of([0.02, -0.01, 0.005])
    assert annualize_return(mixed) == pytest.approx(np.mean([0.02, -0.01, 0.005]) * 250)


def test_annualize_return_empty_series():
    empty = ReturnSeries("AAA", [], np.array([]))
    with pytest.raises(InsufficientDataError):
        annualize_return(empty)


def test_daily_volatility_known_values():
    assert daily_volatility_of([0.01, 0.01, 0.01]) == 0.0
    assert daily_volatility_of([0.02, -0.02]) == pytest.approx(math.sqrt(0.0008), rel=1e-12)
    assert daily_volatility_of([-0.01, 0.0, 0.01]) == pytest.approx(0.01, rel=1e-12)


def daily_volatility_of(values):
    return daily_volatility(returns_of(values))


def test_daily_volatility_is_sample_deviation():
    rng = np.random.default_rng(11)
    values = rng.normal(0, 0.02, size=40)
    expected = math.sqrt(((values - values.mean()) ** 2).sum() / (len(values) - 1))
    assert daily_volatility_of(list(values)) == pytest.approx(expected, rel=1e-12)


def test_daily_volatility_needs_two_returns():
    with pytest.raises(InsufficientDataError):
        daily_volatility_of([0.01])


def test_annual_volatility_scaling():
    assert annual_volatility(0.0) == 0.0
    assert annual_volatility(0.02) == pytest.approx(0.02 * math.sqrt(250), rel=1e-15)
    with pytest.raises(ValueError):
        annual_volatility(-0.01)


def test_return_series_validation():
    with pytest.raises(ValueError):
        returns_of([0.5, -1.5])
    with pytest.raises(ValueError):
        ReturnSeries("AAA", weekdays(date(2022, 1, 3), 2), np.array([0.1]))
    with pytest.raises(ValueError, match="^AAA: dates not strictly increasing at 2022-01-03$"):
        ReturnSeries("AAA", [date(2022, 1, 4), date(2022, 1, 3)], np.array([0.1, 0.2]))


def test_asset_stats_matches_per_series_pipeline():
    for n_tickers, n_days, seed in [(3, 60, 5), (1, 3, 1), (29, 2000, 7)]:
        panel = random_panel([f"T{i:02d}" for i in range(n_tickers)], n_days, seed=seed)
        stats = asset_stats(panel)
        assert [s.ticker for s in stats] == panel.tickers
        for s in stats:
            rs = daily_returns(panel.series(s.ticker))
            dv = daily_volatility(rs)
            assert s.annual_return == annualize_return(rs)
            assert s.daily_volatility == dv
            assert s.annual_volatility == annual_volatility(dv)


def test_stats_and_covariance_bits_are_pinned():
    # digests taken from the per-ticker implementation, before asset_stats
    # read the returns matrix; a change in how returns are divided or
    # reduced moves them. Equal closes give equal bits however they sit in
    # memory, and the quick start's window gives the CLI's filled panel's bits
    panel = random_panel([f"T{i:02d}" for i in range(49)], 1250, seed=49)
    fortran = PricePanel(panel.tickers, panel.dates, np.asfortranarray(panel.closes))
    train = panel.window(panel.tickers, panel.dates[0], panel.dates[-1])
    for case in (panel, fortran, train, apply_missing_data_policy(train)[0]):
        stats = np.array(
            [(s.annual_return, s.daily_volatility, s.annual_volatility)
             for s in asset_stats(case)]
        )
        entries = covariance_matrix(case).entries
        assert hashlib.sha256(stats.tobytes()).hexdigest() == (
            "19878a4a2056c489cc47144a627dcb20f539fb9c129b4273b1a69df9f565d37a"
        )
        assert hashlib.sha256(entries.tobytes()).hexdigest() == (
            "5d75738d29d4c5c78a1557acc66441fdb33d7d00cc1b91b5b3619a36d3842bfd"
        )


def test_asset_stats_requires_complete_panel():
    closes = np.array([[1.0, np.nan, 3.0]])
    panel = PricePanel(["AAA"], weekdays(date(2022, 1, 3), 3), closes)
    with pytest.raises(ValueError, match="gaps"):
        asset_stats(panel)


def test_asset_stats_requires_three_dates():
    panel = random_panel(["AAA"], 2, seed=1)
    with pytest.raises(InsufficientDataError):
        asset_stats(panel)


def test_covariance_single_asset_is_variance():
    panel = random_panel(["AAA"], 30, seed=9)
    cov = covariance_matrix(panel)
    dv = daily_volatility(daily_returns(panel.series("AAA")))
    assert cov.entries.shape == (1, 1)
    assert cov.entries[0, 0] == pytest.approx(dv * dv, rel=1e-12)


def test_covariance_matches_explicit_double_loop():
    panel = random_panel(["AAA", "BBB", "CCC"], 30, seed=13)
    cov = covariance_matrix(panel)
    rets = panel.closes[:, 1:] / panel.closes[:, :-1] - 1.0
    n, t = rets.shape
    means = rets.mean(axis=1)
    for i in range(n):
        for j in range(n):
            expected = sum(
                (rets[i, k] - means[i]) * (rets[j, k] - means[j]) for k in range(t)
            ) / (t - 1)
            assert cov.entries[i, j] == pytest.approx(expected, rel=1e-10, abs=1e-18)


def test_covariance_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceMatrix(["A", "B"], np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="semidefinite"):
        CovarianceMatrix(["A", "B"], np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        CovarianceMatrix(["A"], np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        CovarianceMatrix([], np.zeros((0, 0)))
    with pytest.raises(ValueError, match="^duplicate ticker 'A'$"):
        CovarianceMatrix(["A", "A"], np.eye(2))


def test_correlation_of_identical_assets_is_one():
    base = random_panel(["AAA"], 40, seed=21)
    closes = np.vstack([base.closes[0], base.closes[0] * 3.0])
    panel = PricePanel(["AAA", "BBB"], base.dates, closes)
    corr = correlation_matrix(covariance_matrix(panel))
    assert corr[0, 0] == 1.0 and corr[1, 1] == 1.0
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-10)


def test_correlation_bounds_and_symmetry():
    panel = random_panel(["AAA", "BBB", "CCC", "DDD"], 50, seed=23)
    corr = correlation_matrix(covariance_matrix(panel))
    assert np.array_equal(np.diag(corr), np.ones(4))
    assert np.all(np.abs(corr) <= 1.0 + 1e-12)
    assert np.allclose(corr, corr.T, atol=1e-15)


def test_correlation_rejects_zero_variance():
    dates = weekdays(date(2022, 1, 3), 10)
    closes = np.vstack([np.full(10, 42.0), random_panel(["X"], 10, seed=3).closes[0]])
    panel = PricePanel(["FLAT", "MOVES"], dates, closes)
    with pytest.raises(DegenerateAssetError, match="FLAT"):
        correlation_matrix(covariance_matrix(panel))


_BLAS_PROBE = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[2])
from helpers import random_panel
from sectorfolio import covariance_matrix
n = int(sys.argv[1])
entries = covariance_matrix(random_panel([f"T{i}" for i in range(n)], 1250, seed=8)).entries
print(hashlib.sha256(entries.tobytes()).hexdigest(), bool((entries == entries.T).all()))
"""


def test_covariance_bits_do_not_depend_on_blas_threads():
    # at 100 tickers x 1,249 returns OpenBLAS rounds np.cov differently
    # under 1 and 2 threads
    src = str(Path(sectorfolio.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, "100", str(Path(__file__).parent)],
            env=env, capture_output=True, encoding="utf-8", timeout=120,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout.split())
    assert outputs[0][1] == "True"  # exactly symmetric
    assert outputs[0] == outputs[1]
