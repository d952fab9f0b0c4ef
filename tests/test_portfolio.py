"""Weight vectors, portfolio return and risk, Sharpe ratio."""

import math

import numpy as np
import pytest

from sectorfolio import (
    AlignmentError,
    CovarianceMatrix,
    EmptyUniverseError,
    WeightVector,
    equal_weights,
    portfolio_annual_risk,
    portfolio_return,
    portfolio_stats,
    portfolio_variance,
    sharpe_ratio,
)


def wv(weights, tickers=None):
    tickers = tickers or [f"T{i}" for i in range(len(weights))]
    return WeightVector(list(tickers), np.array(weights, float))


def psd_cov(tickers, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=0.02, size=(len(tickers), len(tickers) + 4))
    return CovarianceMatrix(list(tickers), a @ a.T / (a.shape[1] - 1))


def test_equal_weights_exact():
    ten = equal_weights([f"T{i}" for i in range(10)])
    assert np.array_equal(ten.weights, np.full(10, 0.1))
    assert np.array_equal(equal_weights(["X"]).weights, np.array([1.0]))
    nine = equal_weights([f"T{i}" for i in range(9)])
    assert nine.weights == pytest.approx(np.full(9, 1.0 / 9.0), rel=1e-15)
    with pytest.raises(EmptyUniverseError):
        equal_weights([])


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        wv([0.7, 0.4])  # sums to 1.1
    with pytest.raises(ValueError):
        wv([1.2, -0.2])  # negative entry
    with pytest.raises(ValueError):
        WeightVector(["A", "A"], np.array([0.5, 0.5]))
    with pytest.raises(EmptyUniverseError):
        WeightVector([], np.array([]))
    with pytest.raises(ValueError, match=r"^2 tickers vs weight shape \(3,\)$"):
        WeightVector(["A", "B"], np.array([0.5, 0.25, 0.25]))
    # a sum within 1e-9 of 1 is accepted
    ok = wv([0.5, 0.5 + 5e-10])
    assert ok.weight("T1") == 0.5 + 5e-10


def test_weight_lookup_and_mapping():
    v = wv([0.25, 0.75], ["A", "B"])
    assert v.weight("B") == 0.75
    assert v.as_mapping() == {"A": 0.25, "B": 0.75}
    assert len(v) == 2
    with pytest.raises(KeyError):
        v.weight("Z")


def test_portfolio_return_basis_vector_picks_single_asset():
    v = wv([0.0, 1.0, 0.0], ["A", "B", "C"])
    assert portfolio_return(v, {"A": 0.05, "B": 0.17, "C": -0.02}) == 0.17


def test_portfolio_return_equal_weights_average():
    v = equal_weights(["A", "B"])
    assert portfolio_return(v, {"A": 0.10, "B": 0.20}) == pytest.approx(0.15, rel=1e-15)


def test_portfolio_return_sequence_input():
    v = wv([0.3, 0.7], ["A", "B"])
    assert portfolio_return(v, [0.1, 0.2]) == pytest.approx(0.17, rel=1e-15)


def test_portfolio_return_alignment_errors():
    v = wv([0.5, 0.5], ["A", "B"])
    with pytest.raises(AlignmentError, match="B"):
        portfolio_return(v, {"A": 0.1})
    with pytest.raises(AlignmentError):
        portfolio_return(v, [0.1, 0.2, 0.3])


def test_portfolio_variance_hand_computed():
    cov = CovarianceMatrix(["A", "B"], np.array([[0.04, 0.02], [0.02, 0.01]]) + 0.0)
    v = wv([0.5, 0.5], ["A", "B"])
    # 0.25*0.04 + 0.25*0.01 + 2*0.25*0.02
    assert portfolio_variance(v, cov) == pytest.approx(0.0225, rel=1e-15)


def test_portfolio_variance_basis_vector_is_single_variance():
    cov = psd_cov(["A", "B", "C"], seed=31)
    v = wv([0.0, 0.0, 1.0], ["A", "B", "C"])
    assert portfolio_variance(v, cov) == pytest.approx(cov.variance("C"), rel=1e-15)


def test_portfolio_variance_realigns_covariance_by_ticker():
    entries = np.array([[0.09, 0.01], [0.01, 0.04]])
    cov_ba = CovarianceMatrix(["B", "A"], entries)
    v = wv([0.6, 0.4], ["A", "B"])
    # aligned to (A, B): var_A = 0.04, var_B = 0.09
    expected = 0.36 * 0.04 + 0.16 * 0.09 + 2 * 0.6 * 0.4 * 0.01
    assert portfolio_variance(v, cov_ba) == pytest.approx(expected, rel=1e-15)


def test_portfolio_variance_ticker_set_mismatch():
    cov = psd_cov(["A", "B"], seed=5)
    with pytest.raises(AlignmentError):
        portfolio_variance(wv([0.5, 0.5], ["A", "C"]), cov)


def test_portfolio_variance_plain_array_shape_checked():
    v = wv([0.5, 0.5], ["A", "B"])
    assert portfolio_variance(v, np.eye(2) * 0.01) == pytest.approx(0.005, rel=1e-15)
    with pytest.raises(AlignmentError):
        portfolio_variance(v, np.eye(3))


def test_portfolio_annual_risk_scaling():
    cov = psd_cov(["A", "B", "C"], seed=41)
    v = equal_weights(["A", "B", "C"])
    variance = portfolio_variance(v, cov)
    assert portfolio_annual_risk(v, cov) == pytest.approx(
        math.sqrt(variance * 250), rel=1e-15
    )


def test_sharpe_ratio_known_values():
    assert sharpe_ratio(0.01, 0.01) == 0.0
    assert sharpe_ratio(0.21, 0.20) == pytest.approx(1.0, rel=1e-15)
    assert sharpe_ratio(0.2794, 0.2560) == pytest.approx((0.2794 - 0.01) / 0.2560, rel=1e-15)
    assert sharpe_ratio(0.15, 0.25, rf=0.05) == pytest.approx(0.4, rel=1e-15)
    # float() reads the rate, so a numeric string and a numpy scalar pass too
    assert sharpe_ratio(0.15, 0.25, rf="0.05") == sharpe_ratio(0.15, 0.25, rf=0.05)
    assert sharpe_ratio(0.15, 0.25, rf=np.float64(0.05)) == sharpe_ratio(0.15, 0.25, rf=0.05)


def test_sharpe_ratio_degenerate_risk():
    with pytest.raises(ZeroDivisionError):
        sharpe_ratio(0.1, 0.0)
    with pytest.raises(ValueError):
        sharpe_ratio(0.1, -0.2)


def test_risk_free_default_is_one_percent():
    assert sharpe_ratio(0.21, 0.20) == sharpe_ratio(0.21, 0.20, rf=0.01)
    with pytest.raises(ValueError, match="^risk-free rate must be finite$"):
        sharpe_ratio(0.21, 0.20, rf=math.inf)


def test_portfolio_stats_consistent_with_components():
    tickers = ["A", "B", "C", "D"]
    cov = psd_cov(tickers, seed=53)
    v = wv([0.1, 0.2, 0.3, 0.4], tickers)
    mu = {"A": 0.05, "B": 0.12, "C": -0.03, "D": 0.30}
    stats = portfolio_stats(v, mu, cov)
    assert stats.annual_return == pytest.approx(portfolio_return(v, mu), rel=1e-15)
    assert stats.annual_risk == pytest.approx(portfolio_annual_risk(v, cov), rel=1e-15)
    assert stats.sharpe == pytest.approx(
        (stats.annual_return - 0.01) / stats.annual_risk, rel=1e-15
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_portfolio_stats_rejects_a_risk_free_rate_that_is_not_finite(bad):
    w = equal_weights(["AAA", "BBB", "CCC"])
    with pytest.raises(ValueError, match="^risk-free rate must be finite$"):
        portfolio_stats(w, [0.1, 0.15, 0.2], np.eye(3) * 1e-4, rf=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_portfolio_return_rejects_an_expected_return_that_is_not_finite(bad):
    w = equal_weights(["AAA", "BBB", "CCC"])
    with pytest.raises(ValueError, match="expected returns: BBB is not finite"):
        portfolio_return(w, {"AAA": 0.1, "BBB": bad, "CCC": 0.2})
    with pytest.raises(ValueError, match="expected returns: BBB is not finite"):
        portfolio_stats(w, [0.1, bad, 0.2], np.eye(3) * 1e-4)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[math.nan, 0.0], [0.0, 1e-4]], "covariance entries must be finite"),
        ([[1e-4, 5e-3], [0.0, 1e-4]], "covariance matrix is not symmetric"),
        ([[1e-4, 5e-3], [5e-3, 1e-4]], "covariance matrix is not positive semidefinite"),
        ([[-1e-4, 0.0], [0.0, 1e-4]], "negative variance on the covariance diagonal"),
    ],
    ids=["nan", "asymmetric", "not-psd", "negative-variance"],
)
def test_a_covariance_array_gets_the_covariance_matrix_checks(entries, message):
    w = equal_weights(["A", "B"])
    for call in (portfolio_variance, portfolio_annual_risk):
        with pytest.raises(ValueError, match=message):
            call(w, np.array(entries))
    with pytest.raises(ValueError, match=message):
        portfolio_stats(w, [0.1, 0.2], entries)


@pytest.mark.parametrize(
    "args, message",
    [
        ((math.nan, 0.2), "return and risk must be finite"),
        ((0.1, math.nan), "return and risk must be finite"),
        ((0.1, math.inf), "return and risk must be finite"),
        ((0.1, 0.2, math.nan), "risk-free rate must be finite"),
    ],
    ids=["return", "risk", "infinite-risk", "rf"],
)
def test_sharpe_ratio_rejects_an_input_that_is_not_finite(args, message):
    with pytest.raises(ValueError, match=message):
        sharpe_ratio(*args)
