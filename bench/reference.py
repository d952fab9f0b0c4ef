"""A fixed amount of work that reads no sectorfolio code, used as a yardstick.

The benchmark runs this in a fresh process before and after every timed
CLI call, on the same CPU, and divides the call's wall and CPU time by
the mean of the two. On a shared virtual machine each CPU switches
between a fast state and one about 1.5x slower every few seconds; both
processes slow down by similar factors, so the ratio holds still where
the seconds do not. The work resembles the CLI's: the
interpreter start, the numpy import, parsing text to floats, small numpy
products scored one at a time from Python, and formatting rows as text.
It is fixed: no argument, clock or environment variable changes it.
"""

import numpy as np

ASSETS = 10
ROUNDS = 9_000


def main() -> float:
    rng = np.random.default_rng(12345)
    text = [f"{v:.4f}" for v in rng.uniform(20.0, 500.0, 20_000)]
    closes = np.array([float(t) for t in text]).reshape(ASSETS, -1)
    returns = np.diff(closes, axis=1) / closes[:, :-1]
    cov = np.cov(returns)
    mean = returns.mean(axis=1)
    best, rows = float("-inf"), []
    for w in rng.dirichlet(np.ones(ASSETS), ROUNDS):
        risk = float(np.sqrt(w @ cov @ w))
        score = float(w @ mean) / risk
        best = max(best, score)
        rows.append(",".join(f"{x:.6f}" for x in w) + f",{risk:.6f}")
    return best + len("\n".join(rows))


if __name__ == "__main__":
    main()
