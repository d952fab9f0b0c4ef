"""Monte Carlo frontier sampling, selection, and export."""

import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sectorfolio

from sectorfolio import (
    AlignmentError,
    CovarianceMatrix,
    DataFormatError,
    DegenerateSampleError,
    EmptyCloudError,
    FrontierCloud,
    FrontierSample,
    SAMPLERS,
    WeightVector,
    export_frontier,
    min_risk_portfolio,
    optimum_risk_portfolio,
    read_frontier_csv,
    sample_frontier,
)
from sectorfolio.frontier import _BLOCK, _DIGIT_WORDS, _selection

TICKERS3 = ["AAA", "BBB", "CCC"]
MU3 = {"AAA": 0.08, "BBB": 0.15, "CCC": 0.30}
SIGMA3 = np.array([0.010, 0.018, 0.032])
CORR3 = np.array([[1.0, 0.25, 0.10], [0.25, 1.0, 0.35], [0.10, 0.35, 1.0]])
COV3 = CovarianceMatrix(TICKERS3, np.outer(SIGMA3, SIGMA3) * CORR3)


def manual_sample(weights, tickers=TICKERS3, cov=COV3, mu=MU3, rf=0.01):
    wv = WeightVector(list(tickers), np.array(weights, float))
    ret = sum(w * mu[t] for w, t in zip(weights, tickers))
    var = float(wv.weights @ cov.entries @ wv.weights)
    risk = math.sqrt(var * 250)
    sharpe = (ret - rf) / risk if risk > 0 else math.nan
    return FrontierSample(wv, ret, risk, sharpe)


class _WrittenCloud(FrontierCloud):
    """A cloud whose weight rows are written out rather than drawn from its seed."""

    def __init__(self, *args, rows, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = rows

    def weight_rows(self, lo, hi):
        return self.rows[lo:hi].copy()


def _cloud(tickers, rows):
    """A cloud over hand-written (weights, return, risk, sharpe) rows."""
    weights = np.array([row[0] for row in rows], float).reshape(len(rows), len(tickers))
    returns, risks, sharpes = (np.array([row[k] for row in rows], float) for k in (1, 2, 3))
    return _WrittenCloud(list(tickers), returns, risks, sharpes,
                         seed=0, sampler="uniform", rows=weights)


def test_single_asset_cloud_is_degenerate_point():
    cov = CovarianceMatrix(["AAA"], np.array([[0.0004]]))
    cloud = sample_frontier({"AAA": 0.12}, cov, n_samples=5, seed=1)
    assert cloud.sample_count == 5
    assert cloud.weight_rows(0, 5).tolist() == [[1.0]] * 5
    assert cloud.annual_returns.tolist() == [0.12] * 5
    assert cloud.annual_risks == pytest.approx([0.02 * math.sqrt(250)] * 5, rel=1e-12)


def test_samples_live_on_the_simplex():
    for sampler in ("uniform", "dirichlet"):
        cloud = sample_frontier(MU3, COV3, n_samples=2_000, seed=7, sampler=sampler)
        weights = cloud.weight_rows(0, cloud.sample_count)
        assert np.all(weights >= 0.0)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)


def test_sample_stats_match_portfolio_arithmetic():
    cloud = sample_frontier(MU3, COV3, n_samples=50, seed=3)
    for i in range(cloud.sample_count):
        s = cloud.sample(i)
        expect = manual_sample(s.weights.weights)
        assert s.annual_return == pytest.approx(expect.annual_return, rel=1e-12)
        assert s.annual_risk == pytest.approx(expect.annual_risk, rel=1e-12)
        assert s.sharpe == pytest.approx(expect.sharpe, rel=1e-12)


def test_same_seed_reproduces_cloud_bitwise():
    a = sample_frontier(MU3, COV3, n_samples=500, seed=11)
    b = sample_frontier(MU3, COV3, n_samples=500, seed=11)
    assert np.array_equal(a.annual_risks, b.annual_risks)
    assert np.array_equal(a.weight_rows(0, 500), b.weight_rows(0, 500))


def test_different_seeds_differ():
    a = sample_frontier(MU3, COV3, n_samples=100, seed=1)
    b = sample_frontier(MU3, COV3, n_samples=100, seed=2)
    assert not np.array_equal(a.annual_risks, b.annual_risks)


def test_dirichlet_sampler_is_deterministic_too():
    a = sample_frontier(MU3, COV3, n_samples=200, seed=9, sampler="dirichlet")
    b = sample_frontier(MU3, COV3, n_samples=200, seed=9, sampler="dirichlet")
    assert np.array_equal(a.annual_risks, b.annual_risks)


def test_sampler_distributions_differ():
    a = sample_frontier(MU3, COV3, n_samples=100, seed=9)
    b = sample_frontier(MU3, COV3, n_samples=100, seed=9, sampler="dirichlet")
    assert not np.array_equal(a.annual_risks, b.annual_risks)


def test_sample_frontier_argument_validation():
    with pytest.raises(EmptyCloudError):
        sample_frontier(MU3, COV3, n_samples=0)
    with pytest.raises(ValueError) as caught:
        sample_frontier(MU3, COV3, n_samples=10, sampler="sobol")
    assert str(caught.value) == "unknown sampler 'sobol', known: dirichlet, uniform"
    with pytest.raises(AlignmentError):
        sample_frontier({"AAA": 0.1}, COV3, n_samples=10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_frontier_rejects_a_risk_free_rate_that_is_not_finite(monkeypatch, bad):
    def no_draw(*args):
        raise AssertionError("drew weights")

    monkeypatch.setattr(sectorfolio.frontier, "_weight_rows", no_draw)
    with pytest.raises(ValueError) as caught:
        sample_frontier(MU3, COV3, n_samples=10, rf=bad)
    assert str(caught.value) == "risk-free rate must be finite"


def test_sample_frontier_takes_a_risk_free_rate_that_float_reads():
    expect = sample_frontier(MU3, COV3, n_samples=50, seed=3, rf=0.05).sharpe_ratios
    for rf in ("0.05", np.float64(0.05)):
        cloud = sample_frontier(MU3, COV3, n_samples=50, seed=3, rf=rf)
        assert cloud.sharpe_ratios.tobytes() == expect.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_frontier_rejects_an_expected_return_that_is_not_finite(bad):
    # unchecked, a NaN return makes every Sharpe ratio NaN, and argmax takes sample 0 as the ORP
    with pytest.raises(ValueError, match="expected returns: BBB is not finite"):
        sample_frontier([0.08, bad, 0.30], COV3, n_samples=10)
    with pytest.raises(ValueError, match="expected returns: BBB is not finite"):
        sample_frontier({**MU3, "BBB": bad}, COV3, n_samples=10)


def test_selection_tie_breaks_on_first_index():
    # rows 1 and 3 tie on risk and Sharpe but hold different weights
    cloud = _cloud(TICKERS3, [
        ([0.5, 0.3, 0.2], 0.10, 0.30, 0.30),
        ([0.2, 0.3, 0.5], 0.12, 0.20, 0.55),
        ([0.4, 0.4, 0.2], 0.11, 0.25, 0.40),
        ([0.1, 0.6, 0.3], 0.12, 0.20, 0.55),
    ])
    for pick in (min_risk_portfolio(cloud), optimum_risk_portfolio(cloud)):
        assert pick.weights.weights.tolist() == [0.2, 0.3, 0.5]
        assert (pick.annual_return, pick.annual_risk, pick.sharpe) == (0.12, 0.20, 0.55)


def test_sample_builds_a_fresh_copy_of_one_row():
    cloud = sample_frontier(MU3, COV3, n_samples=20, seed=4)
    first, again = cloud.sample(7), cloud.sample(-13)
    assert first is not again
    row = cloud.weight_rows(7, 8)[0]
    assert first.weights.weights.tobytes() == row.tobytes()
    assert again.weights.weights.tobytes() == row.tobytes()
    assert first.weights.tickers == TICKERS3
    assert (first.annual_return, first.annual_risk, first.sharpe) == (
        cloud.annual_returns[7], cloud.annual_risks[7], cloud.sharpe_ratios[7])
    first.weights.weights[0] = 9.0
    assert again.weights.weights[0] != 9.0
    assert cloud.sample(7).weights.weights.tobytes() == row.tobytes()
    with pytest.raises(IndexError):
        cloud.sample(20)


def test_selection_on_empty_cloud():
    empty = _cloud(TICKERS3, [])
    with pytest.raises(EmptyCloudError):
        min_risk_portfolio(empty)
    with pytest.raises(EmptyCloudError):
        optimum_risk_portfolio(empty)
    with pytest.raises(EmptyCloudError):
        export_frontier(empty, io.StringIO())


def test_zero_risk_sample_blocks_sharpe_selection():
    flat_cov = CovarianceMatrix(["AAA"], np.array([[0.0]]))
    cloud = sample_frontier({"AAA": 0.1}, flat_cov, n_samples=3, seed=1)
    assert np.isnan(cloud.sharpe_ratios).all()
    assert min_risk_portfolio(cloud).annual_risk == 0.0
    with pytest.raises(DegenerateSampleError):
        optimum_risk_portfolio(cloud)


def test_export_flags_and_roundtrip(tmp_path):
    cloud = sample_frontier(MU3, COV3, n_samples=400, seed=13)
    path = tmp_path / "frontier.csv"
    export_frontier(cloud, path)
    tickers, rows = read_frontier_csv(path)
    assert tickers == TICKERS3
    assert len(rows) == 400

    mrp = min_risk_portfolio(cloud)
    orp = optimum_risk_portfolio(cloud)
    flagged = {flag: (risk, ret) for risk, ret, _, _, flag in rows if flag}
    assert set(flagged) <= {"mrp", "orp", "mrp+orp"}
    mrp_rows = [r for r in rows if "mrp" in r[4]]
    orp_rows = [r for r in rows if "orp" in r[4]]
    assert len(mrp_rows) == 1 and len(orp_rows) == 1
    assert mrp_rows[0][0] == pytest.approx(mrp.annual_risk, rel=1e-11)
    assert orp_rows[0][2] == pytest.approx(orp.sharpe, rel=1e-11)

    # reloaded weights rebuild each row's stats
    for risk, ret, sharpe, weights, _ in rows[:25]:
        rebuilt = manual_sample(weights / weights.sum())
        assert risk == pytest.approx(rebuilt.annual_risk, rel=1e-9)
        assert ret == pytest.approx(rebuilt.annual_return, rel=1e-9, abs=1e-12)
        assert sharpe == pytest.approx(rebuilt.sharpe, rel=1e-9)


def test_export_merges_flags_when_one_row_wins_both():
    cloud = _cloud(TICKERS3, [
        ([0.9, 0.05, 0.05], 0.20, 0.10, 1.9),  # dominant
        ([0.0, 0.0, 1.0], 0.10, 0.50, 0.18),  # dominated
    ])
    buf = io.StringIO()
    export_frontier(cloud, buf)
    buf.seek(0)
    _, rows = read_frontier_csv(buf)
    assert rows[0][4] == "mrp+orp"
    assert rows[1][4] == ""


def test_read_frontier_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("annual_risk,annual_return\n1,2\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        read_frontier_csv(path)
    path.write_text(
        "annual_risk,annual_return,sharpe,w_A,flag\n0.1,0.2\n", encoding="utf-8"
    )
    with pytest.raises(DataFormatError, match="line 2"):
        read_frontier_csv(path)


@pytest.mark.parametrize("flag", ["bogus", "MRP", "orp+mrp", " mrp"])
def test_read_frontier_rejects_an_unknown_flag(flag):
    text = f"annual_risk,annual_return,sharpe,w_A,flag\n0.1,0.2,1.9,1,mrp\n0.1,0.2,1.9,1,{flag}\n"
    with pytest.raises(DataFormatError) as caught:
        read_frontier_csv(io.StringIO(text))
    assert str(caught.value) == f"<stream>: line 3: unknown flag {flag!r}"


_FRONTIER_HEADER = "annual_risk,annual_return,sharpe,w_A,w_B,flag\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0.1,0.2,1.9,0.5,0.5,mrp", "0.2,0.3,1.4,0.5,0.5,mrp"], "line 3: flag 'mrp' repeats line 2"),
        (["0.1,0.2,1.9,0.5,0.5,orp", "", "0.2,0.3,1.4,0.5,0.5,orp"],
         "line 4: flag 'orp' repeats line 2"),
        (["0.1,0.2,1.9,0.5,0.5,mrp+orp", "0.2,0.3,1.4,0.5,0.5,orp"],
         "line 3: flag 'orp' repeats line 2"),
        (["0.1,0.2,1.9,0.5,0.5,orp", "0.2,0.3,1.4,0.5,0.5,mrp+orp"],
         "line 3: flag 'orp' repeats line 2"),
    ],
    ids=["mrp-twice", "orp-twice", "both-then-orp", "orp-then-both"],
)
def test_read_frontier_rejects_a_second_flagged_row(rows, message):
    text = _FRONTIER_HEADER + "".join(row + "\n" for row in rows)
    with pytest.raises(DataFormatError) as caught:
        read_frontier_csv(io.StringIO(text))
    assert str(caught.value) == f"<stream>: {message}"


@pytest.mark.parametrize(
    "weights, reason",
    [
        ("0.9,0.9", "weights must sum to 1 within 1e-09, got 1.8"),
        ("-0.5,1.5", "weights must be finite and non-negative"),
        ("nan,1", "weights must be finite and non-negative"),
        ("0.5,0.4999", "weights must sum to 1 within 1e-09, got 0.9999"),
    ],
)
def test_read_frontier_rejects_weights_off_the_simplex(weights, reason):
    text = _FRONTIER_HEADER + f"0.1,0.2,1.9,0.5,0.5,mrp\n0.2,0.3,1.4,{weights},\n"
    with pytest.raises(DataFormatError) as caught:
        read_frontier_csv(io.StringIO(text))
    assert str(caught.value) == f"<stream>: line 3: {reason}"


def test_reloaded_export_weights_lie_on_the_simplex():
    tickers = [f"T{i:02d}" for i in range(50)]
    cov = CovarianceMatrix(tickers, np.diag(np.linspace(1e-4, 4e-4, 50)))
    cloud = sample_frontier(np.linspace(0.0, 0.3, 50), cov, n_samples=5_000, seed=3)
    _, rows = read_frontier_csv(io.StringIO(_exported(cloud)))
    sums = np.array([row[3].sum() for row in rows])
    assert len(rows) == 5_000 and np.abs(sums - 1.0).max() < 1e-11


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "1", None])
def test_sample_frontier_rejects_a_seed_philox_cannot_take(seed):
    with pytest.raises(ValueError) as caught:
        sample_frontier(MU3, COV3, n_samples=3, seed=seed)
    assert str(caught.value) == f"seed must be an integer in [0, 2**128), got {seed!r}"


def test_sample_frontier_takes_any_128_bit_seed():
    for seed in (0, np.int64(7), 2**128 - 1):
        assert sample_frontier(MU3, COV3, n_samples=3, seed=seed).sample_count == 3


def _exported(cloud):
    buf = io.StringIO()
    export_frontier(cloud, buf)
    return buf.getvalue()


def test_export_format_is_pinned_byte_for_byte():
    third = 1.0 / 3.0
    both = _cloud(TICKERS3, [
        ([third, third, third], 0.1 + 0.2, 0.2, 1.45),
        ([0.1, 0.2, 0.7], -0.0123456789012345, 0.25, -0.0893827156049),
    ])
    assert _exported(both) == (
        "annual_risk,annual_return,sharpe,w_AAA,w_BBB,w_CCC,flag\n"
        "0.2,0.3,1.45,0.333333333333,0.333333333333,0.333333333333,mrp+orp\n"
        "0.25,-0.0123456789012,-0.0893827156049,0.1,0.2,0.7,\n"
    )

    pair = _cloud(TICKERS3, [
        ([1e-05, 0.49999, 0.5], 0.05, 0.1, 0.4),
        ([0.0, 0.0, 1.0], 123456789.123, 0.3, 2.0 / 3.0),
        ([0.25, 0.25, 0.5], 0.08, 0.15, 0.07 / 0.15),
    ])
    assert _exported(pair) == (
        "annual_risk,annual_return,sharpe,w_AAA,w_BBB,w_CCC,flag\n"
        "0.1,0.05,0.4,1e-05,0.49999,0.5,mrp\n"
        "0.3,123456789.123,0.666666666667,0,0,1,orp\n"
        "0.15,0.08,0.466666666667,0.25,0.25,0.5,\n"
    )

    flat = _cloud(["ZZZ"], [([1.0], 0.12, 0.0, math.nan), ([1.0], 0.12, 0.0, math.nan)])
    assert _exported(flat) == (
        "annual_risk,annual_return,sharpe,w_ZZZ,flag\n"
        "0,0.12,nan,1,mrp\n"
        "0,0.12,nan,1,\n"
    )


def _printf_export(cloud):
    """The export as the one-row-at-a-time "%.12g" template writes it."""
    mrp, orp = _selection(cloud)
    flags = {mrp: "mrp"}
    if orp is not None:
        flags[orp] = "mrp+orp" if orp == mrp else "orp"
    header = ["annual_risk", "annual_return", "sharpe"] + [f"w_{t}" for t in cloud.tickers]
    lines = [",".join(header) + ",flag\n"]
    weights = cloud.weight_rows(0, cloud.sample_count)
    for i in range(cloud.sample_count):
        values = [cloud.annual_risks[i], cloud.annual_returns[i], cloud.sharpe_ratios[i], *weights[i]]
        lines.append(",".join("%.12g" % x for x in values) + "," + flags.get(i, "") + "\n")
    return "".join(lines)


def _cloud_of(table):
    """A cloud whose rows are (risk, return, sharpe, weights...) rows of `table`."""
    table = np.asarray(table, float)
    tickers = [f"T{j}" for j in range(table.shape[1] - 3)]
    return _cloud(tickers, [(row[3:], row[1], row[0], row[2]) for row in table])


def test_export_spells_values_near_rounding_ties_as_printf_does():
    rng = np.random.default_rng(2024)
    # a 12-digit tie m.5e(x - 11) in every decade from 1e-5 to 10, a few
    # ulps either side, and log-uniform draws over the same range
    n = 600 * 10
    x = rng.integers(-5, 2, n)
    ties = np.array([float(f"{m}5e{e - 12}") for m, e in zip(rng.integers(10**11, 10**12, n), x)])
    near = (ties.view(np.int64) + rng.integers(-3, 4, n)).view(np.float64)
    spread = 10.0 ** rng.uniform(-5, 1, n)
    values = np.where(rng.random(n) < 0.75, near, spread)
    values = np.where(rng.random(n) < 0.5, -values, values)
    cloud = _cloud_of(values.reshape(600, 10))
    with np.errstate(all="raise"):
        assert _exported(cloud) == _printf_export(cloud)


def test_export_spells_any_float_as_printf_does():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # arbitrary floats (NaN, infinities, zeros of both signs, subnormals),
    # and many in the array-spelled range [1e-4, 1) of either sign
    value = st.one_of(
        st.floats(),
        st.floats(1e-4, 1.0, exclude_max=True),
        st.floats(-1.0, -1e-4, exclude_min=True),
    )
    tables = st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(value, min_size=width + 3, max_size=width + 3), min_size=1, max_size=6
    ))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(tables)
    def spelled_as_printf(table):
        cloud = _cloud_of(table)
        with np.errstate(all="raise"):
            assert _exported(cloud) == _printf_export(cloud)

    spelled_as_printf()


def test_export_prints_the_longest_cells_whole():
    # cells printed by one template, each into a 20-byte slot of its chunk;
    # the longest, -1.79769313486e+308 and its comma, fills its slot
    row = [-sys.float_info.max, -2.2250738585072014e-308, -5e-324, math.nan, -math.inf, -0.0]
    cloud = _cloud_of([row, row[::-1]])
    text = _exported(cloud)
    assert text == _printf_export(cloud)
    assert text.splitlines()[1:] == [
        "-1.79769313486e+308,-2.22507385851e-308,-4.94065645841e-324,nan,-inf,-0,mrp",
        "-0,-inf,nan,-4.94065645841e-324,-2.22507385851e-308,-1.79769313486e+308,",
    ]


@pytest.mark.parametrize("mrp, orp", [(255, 512), (256, 256)], ids=["apart", "on-an-edge"])
def test_export_flags_rows_across_chunks(mrp, orp):
    # six-decimal values lie far from every rounding tie, so every cell is
    # spelled by array arithmetic
    rng = np.random.default_rng(600)
    table = np.round(rng.uniform(0.01, 0.9, (600, 8)), 6)
    table[mrp, 0] = 0.001
    table[orp, 2] = 0.95
    cloud = _cloud_of(table)
    text = _exported(cloud)
    assert text == _printf_export(cloud)
    rows = text.splitlines()[1:]
    flagged = {i: row.rsplit(",", 1)[1] for i, row in enumerate(rows) if not row.endswith(",")}
    assert flagged == ({mrp: "mrp", orp: "orp"} if mrp != orp else {mrp: "mrp+orp"})
    assert "e" not in text.partition("\n")[2] and "%" not in text


def _exported_both_ways(cloud, path):
    """The export written to a path and to a stream, which must agree."""
    export_frontier(cloud, path)
    text = _exported(cloud)
    assert path.read_bytes() == text.encode("ascii")
    return text


# a decade's double either side; the largest double below 1, which rounds
# to 1; a value below 1e-4 that prints in fixed notation; the widest cells
_EDGE_CELLS = [
    *(np.nextafter(p, toward) for p in (1e-4, 1e-3, 1e-2, 1e-1) for toward in (0.0, 1.0)),
    0.9999999999999999, 9.99999999999995e-05, -0.0, -1.79769313486e+308,
]


def test_export_spells_edge_cells_as_printf_does(tmp_path):
    edges = np.array(_EDGE_CELLS + [-v for v in _EDGE_CELLS[:9]])
    # every edge cell in every column, scores and weights alike
    table = [np.roll(edges, k) for k in range(len(edges))]
    cloud = _cloud_of(table)
    assert _exported_both_ways(cloud, tmp_path / "frontier.csv") == _printf_export(cloud)


def test_digit_words_spell_every_four_digit_group():
    spelled = [b"%04d" % g for g in range(10_000)]
    words = b"".join(d.ljust(4, b"\0") for d in spelled + [d.rstrip(b"0") for d in spelled])
    assert _DIGIT_WORDS.tobytes() == words


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 2 * _BLOCK + 1])
def test_export_of_any_length_flags_its_first_and_last_rows(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.uniform(0.01, 0.9, (rows, 7))
    table[0, 0] = 0.001  # the least risk: mrp
    table[-1, 2] = 0.95  # the best Sharpe ratio: orp
    cloud = _cloud_of(table)
    lines = _exported_both_ways(cloud, tmp_path / "frontier.csv").split("\n")
    # compared line by line, so a failure names its first line, not a diff of the whole
    assert lines == _printf_export(cloud).split("\n")
    assert len(lines) == rows + 2 and lines[-1] == ""
    if rows == 1:
        assert lines[1].endswith(",mrp+orp")
    else:
        assert lines[1].endswith(",mrp") and lines[-2].endswith(",orp")


_BLAS_PROBE = """
import hashlib, sys
import numpy as np
from sectorfolio import CovarianceMatrix, sample_frontier
n, samples = int(sys.argv[1]), int(sys.argv[2])
# built without BLAS, so only sampling can depend on the thread count
sigma = np.linspace(0.008, 0.03, n)
corr = np.full((n, n), 0.2)
np.fill_diagonal(corr, 1.0)
cov = CovarianceMatrix([f"T{i}" for i in range(n)], np.outer(sigma, sigma) * corr)
mu = np.random.default_rng(3).normal(0.1, 0.2, n)
cloud = sample_frontier(mu, cov, n_samples=samples, seed=17)
for values in (cloud.annual_returns, cloud.annual_risks, cloud.sharpe_ratios):
    print(hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_cloud_bits_do_not_depend_on_blas_threads():
    # at this size OpenBLAS rounds W @ C, and W @ mu on the odd-sized
    # last block, differently under 1 and 2 threads
    n_assets, n_samples = 300, 3 * _BLOCK - 3
    src = str(Path(sectorfolio.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, str(n_assets), str(n_samples)],
            env=env, capture_output=True, encoding="utf-8", timeout=120,
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.split())
    assert len(digests[0]) == 3
    assert digests[0] == digests[1]


def _marginal(sampler, n_assets=10, n_samples=40_000):
    tickers = [f"T{i}" for i in range(n_assets)]
    cov = CovarianceMatrix(tickers, np.eye(n_assets) * 1e-4)
    cloud = sample_frontier(np.zeros(n_assets), cov, n_samples=n_samples, seed=23,
                            sampler=sampler)
    # one column: rows are independent, so the iid standard errors hold
    w = cloud.weight_rows(0, n_samples)[:, 0]
    dev2 = (w - 1.0 / n_assets) ** 2
    below = (w < 1.0 / 20).mean()
    z = 5.0  # a correct sampler misses by 5 standard errors ~1 run in 1.7M
    return (
        dev2.mean(), z * dev2.std() / math.sqrt(w.size),
        below, z * math.sqrt(below * (1 - below) / w.size),
    )


def test_sampler_marginals_match_what_the_docs_say():
    n = 10
    # dirichlet is flat on the simplex: each weight is Beta(1, n - 1)
    var, var_tol, below, below_tol = _marginal("dirichlet")
    beta_var = (n - 1) / (n**2 * (n + 1))
    beta_below = 1.0 - (1.0 - 1.0 / 20) ** (n - 1)
    assert beta_var == pytest.approx(0.00818, abs=1e-5)
    assert beta_below == pytest.approx(0.370, abs=1e-3)
    assert abs(var - beta_var) <= var_tol
    assert abs(below - beta_below) <= below_tol

    # uniform normalizes iid uniforms and sits nearer 1/n; the reference
    # values come from 2e8 pooled draws, far tighter than the tolerances
    var, var_tol, below, below_tol = _marginal("uniform")
    assert abs(var - 0.003311) <= var_tol
    assert abs(below - 0.2368) <= below_tol
    assert var + var_tol < beta_var
    assert below + below_tol < beta_below


def test_scores_are_pinned_over_three_blocks():
    # digests of the three score arrays taken while the cloud still stored
    # its weights; the last of the three blocks holds 301 samples
    expect = {
        "uniform": "30deee4f8dba8d259114fb9968a0ff0ee181c20685f72b7eaa34707289c74617",
        "dirichlet": "f0c56215d6b14a24404f8426828b3c15714ee2aaac0595c4f07c83363d6e708e",
    }
    for sampler, digest in expect.items():
        cloud = sample_frontier(MU3, COV3, n_samples=2 * _BLOCK + 301, seed=29, rf=0.01,
                                sampler=sampler)
        h = hashlib.sha256()
        for values in (cloud.annual_returns, cloud.annual_risks, cloud.sharpe_ratios):
            h.update(values.tobytes())
        assert h.hexdigest() == digest, sampler


def _reference_row(seed, i, n_assets, sampler):
    """Sample i drawn on its own: its first n_assets of 4 * ceil(n_assets / 4) draws."""
    per = 4 * math.ceil(n_assets / 4)
    bits = np.random.Philox(key=seed)
    bits.advance(i * per // 4)
    u = np.random.Generator(bits).random(per)[:n_assets]
    x = u if sampler == "uniform" else -np.log1p(-u)
    return x / x.sum()


@pytest.mark.parametrize("sampler", ["uniform", "dirichlet"])
@pytest.mark.parametrize("n_assets", [1, 3, 5, 50, 200])
def test_redrawn_rows_match_the_philox_draw_of_their_index(sampler, n_assets):
    tickers = [f"T{i}" for i in range(n_assets)]
    cov = CovarianceMatrix(tickers, np.diag(np.linspace(1e-4, 4e-4, n_assets)))
    mu = np.linspace(0.02, 0.3, n_assets)
    n_samples = 2 * _BLOCK + 301
    cloud = sample_frontier(mu, cov, n_samples=n_samples, seed=31, rf=0.01, sampler=sampler)
    for i in (0, _BLOCK - 1, _BLOCK, n_samples - 1):
        expect = _reference_row(31, i, n_assets, sampler)
        sample = cloud.sample(i)
        assert sample.weights.weights.tobytes() == expect.tobytes(), i
        # the stored scores belong to the redrawn row
        assert sample.annual_return == pytest.approx(float(expect @ mu), rel=1e-12)
        risk = math.sqrt(float(expect @ cov.entries @ expect) * 250)
        assert sample.annual_risk == pytest.approx(risk, rel=1e-12)
    # a range across a block edge holds the same bits as its single rows
    pair = cloud.weight_rows(_BLOCK - 1, _BLOCK + 1)
    assert pair.tobytes() == np.stack([cloud.sample(i).weights.weights
                                       for i in (_BLOCK - 1, _BLOCK)]).tobytes()


def test_weight_rows_range_is_checked():
    cloud = sample_frontier(MU3, COV3, n_samples=10, seed=2)
    assert cloud.weight_rows(0, 10).shape == (10, 3)
    assert cloud.weight_rows(4, 4).shape == (0, 3)
    assert cloud.weight_rows(np.int64(2), np.int64(5)).tobytes() == cloud.weight_rows(2, 5).tobytes()
    with pytest.raises(TypeError):
        cloud.weight_rows(2.0, 5)
    for lo, hi in ((-1, 2), (3, 2), (0, 11), (11, 11)):
        with pytest.raises(IndexError):
            cloud.weight_rows(lo, hi)


@pytest.mark.parametrize("sampler", ["uniform", "dirichlet"])
def test_cloud_memory_does_not_grow_with_samples_times_assets(sampler):
    # a stored 100,000 x 64 weight matrix alone would be 48.8 MiB
    n_assets, n_samples = 64, 100_000
    tickers = [f"T{i}" for i in range(n_assets)]
    cov = CovarianceMatrix(tickers, np.diag(np.linspace(1e-4, 4e-4, n_assets)))
    mu = np.linspace(0.02, 0.3, n_assets)
    # a first call imports numpy.random (lazy in numpy 2), about 0.7 MiB
    sample_frontier(mu, cov, n_samples=1, sampler=sampler)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cloud = sample_frontier(mu, cov, n_samples=n_samples, seed=5, sampler=sampler)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cloud.sample_count == n_samples
    mib = 1024 * 1024
    assert held - before <= 3 * mib
    assert peak - before <= 12 * mib
