"""Monte Carlo frontier cloud, MRP/ORP selection, and determinism.

Samples 10,000 random long-only portfolios over a hand-written market,
selects the minimum-risk and maximum-Sharpe books, rescores the MRP with
`portfolio_stats` to the cloud's own bits, and shows that the
cloud is a pure function of the seed: it stores only its scores and
redraws any weight row from (seed, i).
"""

import tempfile
from pathlib import Path

import numpy as np

from sectorfolio import (
    CovarianceMatrix,
    equal_weights,
    export_frontier,
    min_risk_portfolio,
    optimum_risk_portfolio,
    portfolio_annual_risk,
    portfolio_stats,
    sample_frontier,
)

TICKERS = ["BLUE", "GOLD", "JADE", "ONYX", "RUBY"]
SEED = 11
N_SAMPLES = 10_000

# annual expected returns per asset
MU = {"BLUE": 0.06, "GOLD": 0.11, "JADE": 0.17, "ONYX": 0.24, "RUBY": 0.33}

# daily vols from sleepy to wild, mildly correlated
SIGMA = np.array([0.007, 0.012, 0.018, 0.026, 0.034])
CORR = np.full((5, 5), 0.25)
np.fill_diagonal(CORR, 1.0)
COV = CovarianceMatrix(TICKERS, np.outer(SIGMA, SIGMA) * CORR)


def describe(label, sample):
    w = ", ".join(f"{t}={x:.3f}" for t, x in sample.weights.as_mapping().items())
    print(f"{label}: return {sample.annual_return:.2%}, risk {sample.annual_risk:.2%}, "
          f"sharpe {sample.sharpe:.3f}")
    print(f"          {w}")


def main():
    cloud = sample_frontier(MU, COV, n_samples=N_SAMPLES, seed=SEED)
    risks = cloud.annual_risks
    print(f"sampled {cloud.sample_count} portfolios; "
          f"risk spans {risks.min():.2%} .. {risks.max():.2%}\n")

    mrp = min_risk_portfolio(cloud)
    orp = optimum_risk_portfolio(cloud)
    describe("MRP", mrp)
    describe("ORP", orp)

    # the library scores a book with the cloud's own formula, bit for bit
    again = portfolio_stats(mrp.weights, MU, COV)
    assert (again.annual_return, again.annual_risk, again.sharpe) == (
        mrp.annual_return, mrp.annual_risk, mrp.sharpe)
    print("portfolio_stats on the MRP's weights gives its cloud scores exactly")

    # the 1/n book sits well inside the cloud
    ewp = equal_weights(TICKERS)
    stats = portfolio_stats(ewp, MU, COV)
    print(f"\nEWP: return {stats.annual_return:.2%}, risk {stats.annual_risk:.2%}, "
          f"sharpe {stats.sharpe:.3f}")
    assert mrp.annual_risk <= portfolio_annual_risk(ewp, COV)

    # same seed: bitwise the same cloud
    rerun = sample_frontier(MU, COV, n_samples=N_SAMPLES, seed=SEED)
    assert rerun.annual_risks.tobytes() == risks.tobytes()
    print("\na rerun with the same seed reproduces the cloud bit for bit")

    # the cloud stores only its scores; weights are redrawn from (seed, i)
    held = risks.nbytes + cloud.annual_returns.nbytes + cloud.sharpe_ratios.nbytes
    redrawn = cloud.weight_rows(0, N_SAMPLES)
    assert redrawn.tobytes() == rerun.weight_rows(0, N_SAMPLES).tobytes()
    i = int(np.argmin(risks))
    assert redrawn[i].tobytes() == mrp.weights.weights.tobytes()
    print(f"the cloud holds {held:,} bytes of scores; its {redrawn.nbytes:,} bytes of "
          f"weights are redrawn on demand, and row {i} is the MRP bit for bit")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "frontier.csv"
        export_frontier(cloud, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        flagged = [line for line in lines if line.endswith(("mrp", "orp"))]
        print(f"exported {out} ({len(flagged)} flagged rows), removed on exit")


if __name__ == "__main__":
    main()
