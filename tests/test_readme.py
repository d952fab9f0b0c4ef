"""README's library code, run verbatim on small sectors written under tmp_path."""

import io
import re
from pathlib import Path

import numpy as np

from sectorfolio import PricePanel, write_backtest_csv, write_long_csv
from sectorfolio.cli import main

from helpers import random_panel, write_universe

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def _sector(tmp_path, panel: PricePanel, train_days: int) -> None:
    """auto.ini and auto.csv for `panel`, its first `train_days` dates the training window."""
    write_long_csv(panel, tmp_path / "auto.csv")
    dates = panel.dates
    write_universe(tmp_path / "auto.ini", "Auto", panel.tickers,
                   (dates[0], dates[train_days - 1]), (dates[train_days], dates[-1]), "auto.csv")


def _run(block: str) -> dict:
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_the_quick_start_runs_on_a_gap_free_sector(tmp_path, monkeypatch, capsys):
    _sector(tmp_path, random_panel(["AAA", "BBB", "CCC"], 50, seed=3), train_days=40)
    monkeypatch.chdir(tmp_path)
    quick_start, _ = _python_blocks()
    ran = _run(quick_start)
    assert ran["rows"].shape == (100, 3)
    assert re.fullmatch(r"ORP held [+-]\d+\.\d\d%\n", capsys.readouterr().out)


def test_the_gapped_recipe_holds_the_book_the_pipeline_holds(tmp_path, monkeypatch, capsys):
    # CCC trades on 10 of 40 training dates, so it is excluded, and never in the
    # test window; BBB misses the first test date and opens at its last close
    panel = random_panel(["AAA", "BBB", "CCC"], 50, seed=11)
    closes = panel.closes.copy()
    closes[2, 10:] = np.nan
    closes[1, 40] = np.nan
    _sector(tmp_path, PricePanel(panel.tickers, panel.dates, closes), train_days=40)
    monkeypatch.chdir(tmp_path)
    assert main(["pipeline", "--universe", "auto.ini", "--out", "out"]) == 0
    _, gapped = _python_blocks()
    ran = _run(gapped)
    assert ran["excluded"] == [("CCC", 0.75)]
    report = ran["report"]
    written = (tmp_path / "out" / "backtest_orp.csv").read_text(encoding="utf-8")
    total = written.splitlines()[-1].split(",")
    assert total[0] == "TOTAL" and total[-1] == f"{report.holding_return * 100:.2f}"
    recipe = io.StringIO()
    write_backtest_csv(report, recipe)
    assert recipe.getvalue() == written
    assert capsys.readouterr().out.endswith(f"ORP held {report.holding_return:+.2%}\n")
