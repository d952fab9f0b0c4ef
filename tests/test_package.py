"""The package's public surface: the names its modules list, and nothing more imported."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sectorfolio
from sectorfolio import (
    backtest, cli, errors, frontier, market_data, portfolio, reports, return_stats,
)

MODULES = (errors, market_data, return_stats, portfolio, frontier, backtest, reports)


def test_the_package_exports_what_its_modules_list():
    listed = {name: module for module in MODULES for name in module.__all__}
    assert set(sectorfolio.__all__) == {"__version__", "errors", *listed}
    assert len(sectorfolio.__all__) == len(set(sectorfolio.__all__))
    for name, module in listed.items():
        assert getattr(sectorfolio, name) is getattr(module, name), name
    assert sectorfolio.errors is errors


def test_importing_the_package_leaves_fetch_and_the_cli_unloaded():
    src = str(Path(sectorfolio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, sectorfolio; "
        "print(sorted({'sectorfolio.fetch', 'sectorfolio.cli', 'numpy.random'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, encoding="utf-8", timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_no_class_of_the_package_carries_generated_dataclass_methods():
    # a dataclass compiles its generated methods through exec at every import;
    # the package's records write out their methods instead
    for info in pkgutil.iter_modules(sectorfolio.__path__):
        module = importlib.import_module(f"sectorfolio.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                assert not hasattr(value, "__dataclass_fields__"), f"{module.__name__}.{name}"


@pytest.mark.parametrize(
    "record, fields",
    [
        (sectorfolio.FrontierSample, ("weights", "annual_return", "annual_risk", "sharpe")),
        (sectorfolio.AssetStats,
         ("ticker", "annual_return", "daily_volatility", "annual_volatility")),
        (sectorfolio.PortfolioStats, ("annual_return", "annual_risk", "sharpe")),
        (sectorfolio.Allocation, ("ticker", "weight", "buy_price", "amount_invested", "shares",
                                  "sell_price", "terminal_value")),
        (sectorfolio.BacktestReport,
         ("allocations", "initial_capital", "terminal_capital", "holding_return")),
        (cli.RunConfig, ("universe", "prices", "out_dir", "samples", "seed", "rf", "sampler",
                         "threshold", "capital")),
    ],
    ids=["FrontierSample", "AssetStats", "PortfolioStats", "Allocation", "BacktestReport",
         "RunConfig"],
)
def test_a_field_only_record_keeps_its_fields_and_cannot_be_reassigned(record, fields):
    values = [float(k) for k in range(len(fields))]
    built = record(**dict(zip(fields, values)))
    assert built == record(*values)
    assert [getattr(built, name) for name in fields] == values
    with pytest.raises(AttributeError):
        setattr(built, fields[0], -1.0)
