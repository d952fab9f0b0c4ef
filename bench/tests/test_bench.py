"""The benchmark's own tests, on smoke-size inputs.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from check import CheckError, check_outputs
from workloads import WORKLOADS, generate


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = generate(name, 7, "smoke", tmp_path / "a")
    generate(name, 7, "smoke", tmp_path / "b")
    other = generate(name, 8, "smoke", tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [p.name for p in a.inputs] == [p.name for p in other.inputs]


def test_sector_keeps_the_suspended_ticker_and_drops_the_late_listing(tmp_path):
    workload = generate("sector", 3, "full", tmp_path)
    shape = workload.shape
    test_lo = shape.train_days
    gaps = np.isnan(workload.prices.closes)
    suspended = [t for t, row in zip(workload.prices.tickers, gaps)
                 if row[test_lo:test_lo + shape.suspended_days].all()]
    late = [t for t, row in zip(workload.prices.tickers, gaps)
            if row[:shape.train_days].mean() > 0.30]
    assert len(suspended) == 1 and len(late) == 1 and suspended != late


def _cli(workload, out):
    done = subprocess.run([sys.executable, "-m", "sectorfolio.cli", *workload.cli_args(out)],
                          cwd=run.ROOT, env=run._child_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", WORKLOADS)
def test_check_accepts_real_outputs_and_rejects_tampered_ones(tmp_path, name):
    workload = generate(name, 5, "smoke", tmp_path / "inputs")
    out = tmp_path / "out"
    stdout = _cli(workload, out)
    check_outputs(workload, out)
    assert run.verify(workload, out, stdout, run.Outputs()) is None

    _tamper(workload, out / workload.sectors[0].out_subdir)
    with pytest.raises(CheckError):
        check_outputs(workload, out)


def _tamper(workload, directory):
    """Move the MRP pick: a wrong risk on its frontier row, or EWP weights in its column."""
    if workload.command == "pipeline":
        path = directory / "frontier.csv"
        lines = path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines)
                 if line.rsplit(",", 1)[1] in ("mrp", "mrp+orp"))
        lines[i] = "0.5" + lines[i][lines[i].index(","):]
    else:
        path = directory / "weights.csv"
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        lines[1:] = [",".join([r[0], r[1], r[1], r[3]]) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_check_rejects_an_inconsistent_backtest_total(tmp_path):
    workload = generate("sector", 5, "smoke", tmp_path / "inputs")
    out = tmp_path / "out"
    _cli(workload, out)
    path = out / "backtest_orp.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[6] = f"{float(cells[6]) + 1.0:.2f}"
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="terminal rows"):
        check_outputs(workload, out)


def test_verify_flags_outputs_that_change_between_calls(tmp_path):
    workload = generate("cloud", 5, "smoke", tmp_path / "inputs")
    seen = run.Outputs()
    first = _cli(workload, tmp_path / "a")
    assert run.verify(workload, tmp_path / "a", first, seen) is None
    again = _cli(workload, tmp_path / "b")
    (tmp_path / "b" / "weights.csv").write_text("ticker,ewp,mrp,orp\n")
    assert "differ" in run.verify(workload, tmp_path / "b", again.replace("/a/", "/b/"), seen)
    assert "wrote" in run.verify(workload, tmp_path / "b", "", seen)


def test_self_time_subtracts_child_spans():
    spans = [["cli.main", -1, 0, 100], ["a", 0, 10, 30], ["b", 0, 20, 50], ["c", 2, 25, 35]]
    self_s, calls = run._self_times(spans)
    assert self_s["cli.main"] == pytest.approx(60e-9)
    assert self_s["b"] == pytest.approx(20e-9)
    assert calls == {"cli.main": 1, "a": 1, "b": 1, "c": 1}


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_every_workload(trace):
    done = _bench("--workload", "all", "--seed", "4", "--seconds", "0.1",
                  "--trace", trace, "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    metrics = result["metrics"]
    units = run.LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert set(metrics) == {f"{w}/{k}" for w in WORKLOADS for k in units}
    if trace == "1":
        assert metrics["market/market_data.load_calls"]["value"] == 26
        assert metrics["cloud/frontier.export_rows"]["value"] == 0
        assert metrics["sector/market_data.tickers_excluded"]["value"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "sector", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
