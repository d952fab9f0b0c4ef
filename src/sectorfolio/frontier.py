"""Monte Carlo frontier clouds of random long-only portfolios.

A cloud of `n_samples` random long-only portfolios holds three arrays,
24 bytes per sample: annual return, annual risk and Sharpe ratio. Its
weights are redrawn from the seed on demand, never stored. Two
selections matter downstream: the minimum-risk portfolio (MRP, leftmost
point) and the optimum-risk portfolio (ORP, maximum Sharpe ratio).

Samplers
--------
The two samplers, named in `SAMPLERS`, map the same iid U[0, 1) draws to
simplex rows, each row on its own:

* ``uniform`` (the default, as in the paper) divides iid uniforms by
  their sum. Despite the name this is *not* uniform on the simplex: it
  pulls weights toward 1/n. At 10 assets a weight has variance about
  0.0033, against 0.0082 for a flat draw.
* ``dirichlet`` divides iid unit exponentials by their sum. That is the
  flat Dirichlet(1, ..., 1), the uniform distribution on the simplex
  (Smith & Tromble, *Sampling Uniformly from the Unit Simplex*, 2004);
  each weight is Beta(1, n - 1).

Determinism contract
--------------------
Sampling uses a counter-based generator (Philox) with a fixed draw
budget per sample, padded to the generator's four-draw block size, so
the weights of sample ``i`` are a pure function of ``(seed, i)``, the
same bits whichever range of rows redraws them. Scores come from fixed
global blocks of `_BLOCK` samples, each scored by the BLAS-free kernels
that `portfolio_stats` runs on one row, so the BLAS thread count changes
no bit of the cloud, and `portfolio_stats` gives a sample its own bits.

Export
------
Every cell of ``frontier.csv`` is exactly what ``"%.12g"`` prints for
its value. Rows are redrawn and spelled `_EXPORT_ROWS` (256) at a time,
as 4-byte words with NUL padding that one ``bytes.translate`` deletes. A
row starts with its newline, and each later cell, and then the row's
flag, with a comma. A cell whose magnitude lies in [1e-4, 1), which
covers every risk, most returns and nearly every weight, is spelled by
array arithmetic in five words: separator, sign and ``0.``, then 16
decimals (the last always 0) in four-digit groups, its trailing zeros
dropped. Its exponent ``x = floor(log10|v|)`` comes from comparisons
with 1e-3, 1e-2 and 1e-1, each exact because each of those doubles lies
above its decimal value. ``y = |v| * 10**(11 - x)`` is one product by an
exact power of ten, so it lies within half an ulp (under 6.2e-5) of the
exact product, and ``rint(y)`` is the correctly rounded 12-digit integer
whenever the fraction of ``y`` is more than 2.5e-4 from one half and
``rint(y)`` has exactly 12 digits. Every other cell (1 or more, below
1e-4, zero, NaN, infinite, near a rounding tie, or rounding up to the
next decade) is printed by one ``%`` call for the chunk, each into its
own 20-byte slot padded with spaces, which are deleted with the NULs.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path
from typing import IO, Mapping, NamedTuple, Sequence

import numpy as np

from ._files import csv_reader, csv_writer, first_cells, names
from .errors import DegenerateSampleError, EmptyCloudError
from .portfolio import WeightVector, _aligned, _annual_risks, _book_returns, _check_simplex, _risk_free
from .return_stats import CovarianceMatrix

__all__ = [
    "FrontierSample",
    "FrontierCloud",
    "SAMPLERS",
    "sample_frontier",
    "min_risk_portfolio",
    "optimum_risk_portfolio",
    "export_frontier",
    "read_frontier_csv",
]

# samples per scoring block; block edges are global, never derived
# from an argument, so they cannot move a bit of the cloud
_BLOCK = 2048
# rows per export chunk: at 2048 a 50-asset pipeline's peak RSS was
# 56 MiB, against 43 MiB at 256 (the chunk's word and digit arrays)
_EXPORT_ROWS = 256

SAMPLERS = ("dirichlet", "uniform")


class FrontierSample(NamedTuple):
    """One random portfolio with its annual return, risk, and Sharpe, fixed once built.

    `sharpe` is NaN when the sample's risk is exactly zero; selection by
    Sharpe refuses such clouds rather than guessing.
    """

    weights: WeightVector
    annual_return: float
    annual_risk: float
    sharpe: float


class FrontierCloud:
    """The scores of one frontier run as arrays, plus the inputs that made it.

    `annual_returns`, `annual_risks` and `sharpe_ratios` have one entry
    per sample, and a Sharpe ratio is NaN where the risk is exactly zero.
    `weight_rows(lo, hi)` redraws weights; `sample(i)` builds a `FrontierSample`.
    """

    def __init__(
        self,
        tickers: list[str],
        annual_returns: np.ndarray,
        annual_risks: np.ndarray,
        sharpe_ratios: np.ndarray,
        seed: int,
        sampler: str,
    ) -> None:
        self.tickers = first_cells(tickers, "ticker")
        self.annual_returns = annual_returns
        self.annual_risks = annual_risks
        self.sharpe_ratios = sharpe_ratios
        self.seed = seed
        self.sampler = sampler

    @property
    def sample_count(self) -> int:
        return len(self.annual_risks)

    def weight_rows(self, lo: int, hi: int) -> np.ndarray:
        """Redrawn weights of samples [lo, hi), one new row each in `tickers` order."""
        # Philox.advance rejects numpy integers; operator.index also rejects floats
        lo, hi = operator.index(lo), operator.index(hi)
        if not 0 <= lo <= hi <= self.sample_count:
            raise IndexError(f"samples {lo}..{hi} outside 0..{self.sample_count}")
        return _weight_rows(self.seed, self.sampler, lo, hi, len(self.tickers))

    def sample(self, index: int) -> FrontierSample:
        """Sample `index` as a new object holding its redrawn weights."""
        # normalizes a negative index and raises IndexError out of range
        index = range(self.sample_count)[index]
        return FrontierSample(
            WeightVector(list(self.tickers), self.weight_rows(index, index + 1)[0]),
            float(self.annual_returns[index]),
            float(self.annual_risks[index]),
            float(self.sharpe_ratios[index]),
        )


def _weight_rows(seed: int, sampler: str, lo: int, hi: int, n_assets: int) -> np.ndarray:
    """Weight rows of samples [lo, hi): the only place a row comes from.

    Each sample owns `per` consecutive Philox draws, n_assets rounded up
    to Philox's four-draw block, so `advance` jumps to any sample
    exactly. A row is its first n_assets draws u, or -log1p(-u) for
    ``dirichlet``, over their sum: finite and non-negative, summing to 1
    within a few ulps.
    """
    per = 4 * ((n_assets + 3) // 4)
    bits = np.random.Philox(key=seed)
    bits.advance(lo * (per // 4))
    u = np.random.Generator(bits).random((hi - lo, per))[:, :n_assets]
    x = -np.log1p(-u) if sampler == "dirichlet" else u
    return x / x.sum(axis=1, keepdims=True)


def _check_samples(n_samples: int) -> None:
    if n_samples < 1:
        raise EmptyCloudError(f"n_samples must be at least 1, got {n_samples}")


def _check_seed(seed: int) -> None:
    try:
        seeded = 0 <= operator.index(seed) < 2**128  # Philox's key
    except TypeError:
        seeded = False
    if not seeded:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def sample_frontier(
    expected_returns: Mapping[str, float] | Sequence[float] | np.ndarray,
    cov: CovarianceMatrix,
    n_samples: int = 10_000,
    seed: int = 0,
    rf: float = 0.01,
    sampler: str = "uniform",
) -> FrontierCloud:
    """Draw a cloud of random portfolios over the covariance's tickers.

    Parameters
    ----------
    expected_returns : annual expected return per ticker, mapping or
        sequence aligned to ``cov.tickers``.
    cov : daily covariance matrix; defines the ticker order.
    n_samples : cloud size, at least 1.
    seed : generator seed, an integer in [0, 2**128); same seed, same cloud.
    rf : annual risk-free rate for per-sample Sharpe ratios, finite.
    sampler : one of `SAMPLERS` (see the module docs for what each one
        draws).

    Raises
    ------
    EmptyCloudError : n_samples < 1.
    ValueError : unknown sampler name, a seed out of range or not an
        integer, an expected return that is not finite (naming its
        ticker), or a risk-free rate that is not finite.
    AlignmentError : expected returns do not align with the covariance.
    """
    _check_samples(n_samples)
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}, known: {', '.join(SAMPLERS)}")
    _check_seed(seed)
    tickers = list(cov.tickers)
    mu = _aligned(expected_returns, tickers, "expected returns")
    rf = _risk_free(rf)

    returns = np.empty(n_samples)
    risks = np.empty(n_samples)
    sharpes = np.full(n_samples, math.nan)
    for lo in range(0, n_samples, _BLOCK):
        hi = min(lo + _BLOCK, n_samples)
        w = _weight_rows(seed, sampler, lo, hi, len(tickers))
        ret = returns[lo:hi] = _book_returns(w, mu)
        risk = risks[lo:hi] = _annual_risks(w, cov.entries)
        np.divide(ret - rf, risk, out=sharpes[lo:hi], where=risk > 0.0)
    return FrontierCloud(tickers, returns, risks, sharpes, seed, sampler)


def _selection(cloud: FrontierCloud, action: str = "select from") -> tuple[int, int | None]:
    """MRP and ORP sample indices, first index winning ties; no ORP if some risk is 0."""
    if cloud.sample_count == 0:
        raise EmptyCloudError(f"cannot {action} an empty cloud")
    mrp = int(np.argmin(cloud.annual_risks))
    if np.any(cloud.annual_risks == 0.0):
        return mrp, None
    return mrp, int(np.argmax(cloud.sharpe_ratios))


def min_risk_portfolio(cloud: FrontierCloud) -> FrontierSample:
    """The sample with the lowest annual risk, first index winning ties.

    Raises EmptyCloudError on an empty cloud.
    """
    return cloud.sample(_selection(cloud)[0])


def optimum_risk_portfolio(cloud: FrontierCloud) -> FrontierSample:
    """The sample with the highest Sharpe ratio, first index winning ties.

    Raises
    ------
    EmptyCloudError : empty cloud.
    DegenerateSampleError : some sample has exactly zero risk, so the
        Sharpe ordering is undefined.
    """
    orp = _selection(cloud)[1]
    if orp is None:
        raise DegenerateSampleError("cloud contains a zero-risk sample; Sharpe selection is undefined")
    return cloud.sample(orp)


def export_frontier(cloud: FrontierCloud, dest: str | Path | IO[str]) -> None:
    """Write a cloud as CSV with the MRP and ORP rows flagged.

    Columns: annual_risk, annual_return, sharpe, one ``w_<ticker>``
    column per asset, and ``flag`` holding ``mrp``, ``orp``, ``mrp+orp``
    or nothing. Each value is written exactly as ``"%.12g"`` prints it,
    so reloading reproduces selection and stats to numerical noise.
    Rows are redrawn and spelled 256 at a time; cells in [1e-4, 1) are
    spelled by array arithmetic and all others printed (see the module
    docs for the tie margin that keeps them exact). A path is written
    whole or not at all, as `csv_writer` writes it.
    """
    mrp, orp = _selection(cloud, "export")
    flags = {mrp: "mrp"}
    if orp is not None:
        flags[orp] = "mrp+orp" if orp == mrp else "orp"

    header = ["annual_risk", "annual_return", "sharpe"]
    header += [f"w_{t}" for t in cloud.tickers] + ["flag"]
    with csv_writer(dest, header) as (fh, _):
        for lo in range(0, cloud.sample_count, _EXPORT_ROWS):
            hi = min(lo + _EXPORT_ROWS, cloud.sample_count)
            table = np.column_stack((
                cloud.annual_risks[lo:hi], cloud.annual_returns[lo:hi],
                cloud.sharpe_ratios[lo:hi], cloud.weight_rows(lo, hi),
            ))
            spelled = _spell_rows(table, {i - lo: f for i, f in flags.items() if lo <= i < hi})
            # the header's own newline ends it, so the first row's is dropped
            fh.write((spelled[1:] if lo == 0 else spelled).decode("ascii"))
        fh.write("\n")


def _words(*texts: bytes) -> np.ndarray:
    """Each text of at most 4 bytes as one NUL-padded 4-byte word."""
    return np.frombuffer(b"".join(t.ljust(4, b"\0") for t in texts), dtype=np.uint32)


def _digit_words() -> np.ndarray:
    """Four-digit groups as words, 10,000 of each kind in this order: all
    four digits; trailing zeros dropped (so group 0 is an empty word)."""
    chars = np.empty((2, 10, 10, 10, 10, 4), np.uint8)  # kind, the four digits, byte
    for k in range(4):
        chars[..., k] = (np.arange(10) + ord("0")).reshape((10,) + (1,) * (3 - k))
    # a digit is dropped when it and every digit after it are zeros
    for k in range(4):
        chars[(1,) + (slice(None),) * k + (0,) * (4 - k) + (k,)] = 0
    return chars.view(np.uint32).ravel()


_DIGIT_WORDS = _digit_words()
# a fast cell's first word: separator, sign and "0."; `_spell_rows` puts
# a newline in place of the comma of each row's first cell
_PREFIX_WORDS = _words(b",0.", b",-0.")
_FLAG_WORDS = {
    "": _words(b",", b""),
    "mrp": _words(b",mrp", b""),
    "orp": _words(b",orp", b""),
    "mrp+orp": _words(b",mrp", b"+orp"),
}
_SCALE = np.array([1e15, 1e14, 1e13, 1e12])  # 10**(11 - x) for x = -4..-1
_SHIFT = np.array([1e1, 1e2, 1e3, 1e4])  # 10**(x + 5), for 16 decimals
# a slow cell's slot: 20 bytes, as the longest spelling -1.79769313486e+308
# and its separator take; a row holds no space, so the padding is deleted
_SLOW = ",%-19.12g"


def _spell_rows(values: np.ndarray, flags: Mapping[int, str]) -> bytes:
    """Rows of `values` as ``"%.12g"`` cells, ASCII. Each row starts with a
    newline; each later cell, and then the row's flag (``flags[row]``, or
    nothing), starts with a comma.

    Cells in [1e-4, 1) are spelled here as ``0.`` and 15 decimals less
    their trailing zeros; the module docs say why ``rint(y)`` is exact.
    """
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1.0)
    # other cells are scaled as 0.5 would be, so no step overflows
    a = np.where(fast, a, 0.5)
    # x + 4 for x = floor(log10(a)); each of these doubles lies just above
    # its decimal value, so a >= 1e-3 holds exactly when a is 0.001 or more
    x = (a >= 1e-3).view(np.int8) + (a >= 1e-2).view(np.int8)
    x += (a >= 1e-1).view(np.int8)
    y = a * _SCALE.take(x)
    r = np.rint(y)
    # a cell that rounds up to the next decade leaves rint(y) outside [1e11, 1e12)
    fast &= (np.abs(y - r) < 0.5 - 2.5e-4) & (r >= 1e11) & (r < 1e12)
    # 0.9999999999999999 rounds to 1e12; clamped, no cell indexes past the table
    np.minimum(r, 1e12 - 1.0, out=r)

    rows, cells = values.shape
    words = np.empty((rows, cells * 5 + 2), dtype=np.uint32)
    words[:, -2:] = _FLAG_WORDS[""]
    for i, flag in flags.items():
        words[i, -2:] = _FLAG_WORDS[flag]
    cell = words[:, :-2].reshape(rows, cells, 5)
    cell[..., 0] = _PREFIX_WORDS[0]
    cell[values < 0.0, 0] = _PREFIX_WORDS[1]
    # 16 decimals, the last always 0: r * 10**(x + 5) is below 1e16 and
    # exact, as r * 5**4 < 2**53; split in two 8-digit halves, then in
    # four-digit groups. A group is plain before the last nonzero one and
    # trimmed from there on.
    decimals = (r * _SHIFT.take(x)).astype(np.int64)
    high = decimals // 100_000_000
    low = (decimals - high * 100_000_000).astype(np.int32)
    high = high.astype(np.int32)
    g1, g3 = high // 10_000, low // 10_000
    g2, g4 = high - g1 * 10_000, low - g3 * 10_000
    trim = np.full(values.shape, 10_000, np.int32)  # 0 once a later group is nonzero
    for j, group in ((4, g4), (3, g3), (2, g2), (1, g1)):
        cell[..., j] = _DIGIT_WORDS.take(group + trim)
        trim *= group == 0
    # every other cell is printed into its own slot, padded with spaces
    slow = ~fast
    spelled = (_SLOW * np.count_nonzero(slow)) % tuple(values[slow].tolist())
    cell[slow] = np.frombuffer(spelled.encode("ascii"), dtype=np.uint32).reshape(-1, 5)
    words.view(np.uint8)[:, 0] = ord("\n")
    return words.tobytes().translate(None, b"\0 ")


def read_frontier_csv(
    source: str | Path | IO[str],
) -> tuple[list[str], list[tuple[float, float, float, np.ndarray, str]]]:
    """Reload an exported cloud as (tickers, rows).

    Each row is (annual_risk, annual_return, sharpe, weights, flag), the
    flag one of ``mrp``, ``orp``, ``mrp+orp`` or empty. Raises
    DataFormatError on any malformed line, including weights that
    are not a long-only book and a second row flagged ``mrp`` or ``orp``.
    """
    with csv_reader(source) as (_, data, header):
        if (
            len(header) < 5
            or header[:3] != ["annual_risk", "annual_return", "sharpe"]
            or header[-1] != "flag"
            or any(not h.startswith("w_") for h in header[3:-1])
        ):
            raise ValueError("not a frontier export header")
        tickers = names([h[2:].strip() for h in header[3:-1]], "column")
        rows = []
        flagged: dict[str, int] = {}  # "mrp" or "orp" -> line of its row
        for line, row in data:
            if row[-1] not in _FLAG_WORDS:
                raise ValueError(f"unknown flag {row[-1]!r}")
            values = [float(x) for x in row[:-1]]
            weights = np.array(values[3:])
            _check_simplex(weights)
            for flag in filter(None, row[-1].split("+")):
                if flag in flagged:
                    raise ValueError(f"flag {flag!r} repeats line {flagged[flag]}")
                flagged[flag] = line
            rows.append((values[0], values[1], values[2], weights, row[-1]))
        return tickers, rows
