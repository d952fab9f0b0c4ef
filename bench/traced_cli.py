"""Run ``sectorfolio.cli.main`` with a span around every layer call.

Usage: ``PYTHONPATH=src python bench/traced_cli.py SPANS.json CLI_ARG...``

The layer functions that ``sectorfolio.cli`` imports are replaced, in
that module only, by wrappers that record a span (name, parent, start,
end) and a few counts. Spans stay in memory and are written as JSON when
``main`` returns. Work the CLI routes through a function not listed in
``LAYERS`` stays in the ``cli.main`` span's self time.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from sectorfolio import cli


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _count_load(counts, result, source, *args, **kwargs):
    counts["read_bytes"] += _size(source)


def _count_policy(counts, result, panel, *args, **kwargs):
    filled, excluded = result
    rows = [panel.tickers.index(t) for t in filled.tickers]
    counts["cells_filled"] += int(np.isnan(panel.closes[rows]).sum())
    counts["tickers_excluded"] += len(excluded)


def _count_fill(counts, result, panel, *args, **kwargs):
    counts["cells_filled"] += int(np.isnan(panel.closes).sum())


def _count_samples(counts, result, *args, **kwargs):
    counts["samples"] += result.sample_count


def _count_export(counts, result, cloud, dest, *args, **kwargs):
    counts["export_rows"] += cloud.sample_count
    counts["export_bytes"] += _size(dest)


def _count_backtest(counts, result, *args, **kwargs):
    counts["backtest_calls"] += 1


def _count_report(counts, result, *args, **kwargs):
    counts["report_files"] += 1


# name in sectorfolio.cli -> (span name, counter run after the span ends)
LAYERS = {
    "load_price_panel": ("market_data.load", _count_load),
    "apply_missing_data_policy": ("market_data.policy", _count_policy),
    "fill_gaps": ("market_data.policy", _count_fill),
    "asset_stats": ("return_stats", None),
    "covariance_matrix": ("return_stats", None),
    "sample_frontier": ("frontier.sample", _count_samples),
    "min_risk_portfolio": ("frontier.select", None),
    "optimum_risk_portfolio": ("frontier.select", None),
    "export_frontier": ("frontier.export", _count_export),
    "backtest_from_panel": ("backtest", _count_backtest),
    "write_backtest_csv": ("backtest", None),
    "read_weights_csv": ("reports", None),
    "write_stats_csv": ("reports", _count_report),
    "write_weights_csv": ("reports", _count_report),
    "write_sector_result": ("reports", _count_report),
    "write_summary": ("reports", _count_report),
}

COUNTS = ("read_bytes", "cells_filled", "tickers_excluded", "samples",
          "export_rows", "export_bytes", "backtest_calls", "report_files")


class Tracer:
    """Spans as [name, parent index or -1, start_ns, end_ns], plus counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter_ns(), 0])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][3] = time.perf_counter_ns()

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if counter is not None:
                counter(self.counts, result, *args, **kwargs)
            return result

        return traced


def run(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    for attr, (name, counter) in LAYERS.items():
        if hasattr(cli, attr):
            setattr(cli, attr, tracer.wrap(getattr(cli, attr), name, counter))
    try:
        return tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
