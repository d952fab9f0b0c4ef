"""Benchmark the sectorfolio CLI, one fresh process per timed call.

Usage, from the repository root::

    python3 bench/run.py --workload sector --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload market --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 2 --trace 1 --size smoke

Each timed call is ``python -m sectorfolio.cli ...`` with ``PYTHONPATH=src``
in a new process, so it pays the interpreter start and the imports and
keeps nothing from the call before; one client runs one call at a time
(a closed loop) with ``--workers 1`` and ``--jobs 1``. The BLAS thread
environment is passed through as found and recorded, never set.

``--trace 0`` reports the end-to-end metrics. ``wall_rel`` and
``cpu_rel`` are the median, over the calls, of one call's wall and
child CPU time (from ``os.wait4``) divided by the mean of the fresh
``bench/reference.py`` runs just before and just after it: a fixed
yardstick that reads no sectorfolio code, so the ratio drops when the
program gets faster and holds still when the host does. The benchmark
and everything it starts are pinned to one CPU, which makes a call and
its yardstick meet the same spells of a shared host's speed. The same
times in seconds are printed and recorded beside them. ``peak_rss_mb``
is the median peak RSS of one call, and ``setup_s`` the median wall time
of a fresh ``--help`` (one before each call, at least 11 in a run).
One untimed ``--help`` and one untimed, checked workload call come
before the timed calls. ``--trace 1`` alternates plain
calls with calls through ``bench/traced_cli.py`` and reports per-layer
medians from the traced ones, plus the tracing overhead.

Every call's outputs are checked: exit 0, one ``wrote <path>`` line per
file written, files byte-identical to the first call's, and the first
call's files against the numpy reference in ``bench/check.py``. A call
that fails any of these counts as failed. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; a full record, environment and input hashes included,
goes to ``.bench_runs/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from check import CheckError, check_outputs
from workloads import SIZES, WORKLOADS, Workload, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"

SETUP_CALLS = {"full": 11, "smoke": 3}
CALL_TIMEOUT_S = 60.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WHY = {
    "sector": "one 50-ticker pipeline: sampling, two long-CSV parses and frontier export in similar shares",
    "cloud": "50k dirichlet samples on 10 tickers: sampling and scoring dominate, nothing exported",
    "market": "pipeline --all over 13 sectors sharing one wide CSV: 26 full parses dominate",
}

END_TO_END_UNITS = {"wall_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MiB",
                    "setup_s": "s"}
# printed and recorded beside the end-to-end metrics, not reported in the JSON line
SUMMARY_UNITS = {**END_TO_END_UNITS, "wall_s": "s", "cpu_s": "s", "reference_wall_s": "s"}
LAYER_UNITS = {
    "market_data.load_s": "s",
    "market_data.load_calls": "count",
    "market_data.read_mb": "MB",
    "market_data.read_mb_per_s": "MB/s",
    "market_data.policy_s": "s",
    "market_data.cells_filled": "count",
    "market_data.tickers_excluded": "count",
    "return_stats.self_s": "s",
    "frontier.sample_s": "s",
    "frontier.samples": "count",
    "frontier.samples_per_s": "1/s",
    "frontier.select_s": "s",
    "frontier.export_s": "s",
    "frontier.export_rows": "count",
    "frontier.export_mb": "MB",
    "backtest.self_s": "s",
    "backtest.calls": "count",
    "reports.self_s": "s",
    "reports.files": "count",
    "cli.self_s": "s",
    "process.outside_main_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# the layer self times, which with process.outside_main_s add up to trace.wall_s
TIMED_LAYERS = ("market_data.load_s", "market_data.policy_s", "return_stats.self_s",
                "frontier.sample_s", "frontier.select_s", "frontier.export_s",
                "backtest.self_s", "reports.self_s", "cli.self_s", "process.outside_main_s")


class SetupError(Exception):
    """The program cannot be run at all, so there is nothing to measure."""


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    traced: bool
    error: str | None = None
    layers: dict[str, float] | None = None


@dataclass
class Outputs:
    """Output digests seen so far in one run, and their check results."""

    first: str | None = None
    checked: dict[str, str | None] = field(default_factory=dict)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run `cmd` to completion; returns (exit code, wall s, CPU s, peak RSS MiB)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(files: list[Path], base: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(f"{f.relative_to(base)}\0{sha256(f)}\n".encode())
    return h.hexdigest()


def verify(workload: Workload, out: Path, stdout: str, seen: Outputs) -> str | None:
    """Why one call's outputs are wrong, or None when they are right."""
    wrote = {Path(line[len("wrote "):]).resolve()
             for line in stdout.splitlines() if line.startswith("wrote ")}
    if not wrote:
        return "no 'wrote <path>' line"
    files = [p for p in out.rglob("*") if p.is_file()]
    if wrote != {p.resolve() for p in files}:
        return "'wrote' lines do not match the files written"
    digest = _tree_digest(files, out)
    if seen.first is None:
        seen.first = digest
    elif digest != seen.first:
        return "outputs differ from the first call's"
    if digest not in seen.checked:
        try:
            check_outputs(workload, out)
            seen.checked[digest] = None
        except (CheckError, OSError, ValueError, IndexError, StopIteration,
                ZeroDivisionError) as exc:
            seen.checked[digest] = f"output check: {exc}"
    return seen.checked[digest]


def _self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: total self time in seconds, and call count."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, parent, start, end) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_s[name] += (end - start - covered) / 1e9
        calls[name] += 1
    return self_s, calls


def layer_metrics(trace_file: Path, wall_s: float) -> dict[str, float]:
    data = json.loads(trace_file.read_text(encoding="utf-8"))
    self_s, calls = _self_times(data["spans"])
    counts = data["counts"]
    main = next(s for s in data["spans"] if s[0] == "cli.main")
    load_s, sample_s = self_s["market_data.load"], self_s["frontier.sample"]
    read_mb = counts["read_bytes"] / 1e6
    return {
        "market_data.load_s": load_s,
        "market_data.load_calls": calls["market_data.load"],
        "market_data.read_mb": read_mb,
        "market_data.read_mb_per_s": read_mb / load_s if load_s else 0.0,
        "market_data.policy_s": self_s["market_data.policy"],
        "market_data.cells_filled": counts["cells_filled"],
        "market_data.tickers_excluded": counts["tickers_excluded"],
        "return_stats.self_s": self_s["return_stats"],
        "frontier.sample_s": sample_s,
        "frontier.samples": counts["samples"],
        "frontier.samples_per_s": counts["samples"] / sample_s if sample_s else 0.0,
        "frontier.select_s": self_s["frontier.select"],
        "frontier.export_s": self_s["frontier.export"],
        "frontier.export_rows": counts["export_rows"],
        "frontier.export_mb": counts["export_bytes"] / 1e6,
        "backtest.self_s": self_s["backtest"],
        "backtest.calls": counts["backtest_calls"],
        "reports.self_s": self_s["reports"],
        "reports.files": counts["report_files"],
        "cli.self_s": self_s["cli.main"],
        "process.outside_main_s": wall_s - (main[3] - main[2]) / 1e9,
        "trace.wall_s": wall_s,
    }


def run_call(workload: Workload, work: Path, k: int, traced: bool, seen: Outputs) -> Call:
    out = work / f"out{k}"
    argv = workload.cli_args(out)
    trace_file = work / f"spans{k}.json"
    if traced:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file), *argv]
    else:
        cmd = [sys.executable, "-m", "sectorfolio.cli", *argv]
    log = work / f"call{k}"
    code, wall, cpu, rss = spawn(cmd, log)
    call = Call(wall, cpu, rss, traced)
    if code != 0:
        stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        call.error = f"exit {code}: {stderr.strip()[-300:]}"
    else:
        stdout = log.with_suffix(".out").read_text(encoding="utf-8", errors="replace")
        call.error = verify(workload, out, stdout, seen)
    if traced and call.error is None:
        try:
            call.layers = layer_metrics(trace_file, wall)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            call.error = f"trace file: {exc!r}"
    shutil.rmtree(out, ignore_errors=True)
    return call


def help_call(work: Path, k: int) -> float:
    """Wall time of one fresh ``sectorfolio --help``: imports and the parser."""
    code, wall, _, _ = spawn([sys.executable, "-m", "sectorfolio.cli", "--help"],
                             work / f"help{k}")
    if code != 0:
        err = (work / f"help{k}.err").read_text(encoding="utf-8", errors="replace")
        raise SetupError(f"'sectorfolio --help' exited {code}: {err.strip()[-300:]}")
    return wall


def reference_call(work: Path, k: int) -> tuple[float, float]:
    """Wall and CPU seconds of one fresh ``bench/reference.py``."""
    code, wall, cpu, _ = spawn([sys.executable, str(BENCH / "reference.py")], work / f"ref{k}")
    if code != 0:
        err = (work / f"ref{k}.err").read_text(encoding="utf-8", errors="replace")
        raise SetupError(f"bench/reference.py exited {code}: {err.strip()[-300:]}")
    return wall, cpu


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every process it starts, to one CPU it may use.

    Each vCPU of a shared host switches between a fast state and one about
    1.5x slower every few seconds, independently of the other vCPUs. On one
    vCPU, a timed call and the reference runs either side of it meet the
    same states, so their ratio holds still where their seconds do not.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(cpus: int | None, pinned: int | None) -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k]['name']} {deps[k]['version']}" for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    src = ROOT / "src"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": cpus,
        "pinned_cpu": pinned,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _tree_digest(list(src.rglob("*.py")), src),
    }


def _stats(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "p25": q1, "p75": q3, "n": len(values)}


def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            env: dict) -> dict:
    """One benchmark run of one workload; returns its full record."""
    work = RUNS / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = generate(name, seed, size, work / "inputs")
        inputs = {str(p.relative_to(work / "inputs")): sha256(p) for p in workload.inputs}
        start = time.perf_counter()
        # untimed: the first call in a fresh checkout compiles the bytecode,
        # a cost users pay once per install rather than per call
        help_call(work, 0)
        seen, calls, setup, refs = Outputs(), [], [], []
        # untimed but checked: the first workload call of a run was often
        # its slowest, right after the generator's burst of work
        warmup = run_call(workload, work, -1, False, seen)
        # setup and reference calls sit right before each timed call so that
        # they meet the same spells of a shared host's speed; a call starts
        # only if a typical one would still end in time
        while True:
            if not trace:
                setup.append(help_call(work, len(setup) + 1))
                refs.append(reference_call(work, len(refs)))
            calls.append(run_call(workload, work, len(calls), trace and len(calls) % 2 == 1, seen))
            elapsed = time.perf_counter() - start
            typical = statistics.median(c.wall_s for c in calls)
            if elapsed + typical > seconds and len(calls) >= (2 if trace else 1):
                break
        if not trace:
            refs.append(reference_call(work, len(refs)))
        while not trace and len(setup) < SETUP_CALLS[size]:
            setup.append(help_call(work, len(setup) + 1))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(c.error is not None for c in (warmup, *calls))
    plain = [c for c in calls if not c.traced]
    summary = {}
    for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
        summary[metric] = _stats([getattr(c, metric) for c in plain])
    if trace:
        traced = [c.layers for c in calls if c.layers is not None]
        metrics = {}
        if traced:
            metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - summary["wall_s"]["median"]
        units = LAYER_UNITS
    else:
        # each call against the mean of the reference runs either side of it
        around = [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(refs, refs[1:])]
        summary["wall_rel"] = _stats([c.wall_s / r[0] for c, r in zip(calls, around)])
        summary["cpu_rel"] = _stats([c.cpu_s / r[1] for c, r in zip(calls, around)])
        summary["setup_s"] = _stats(setup)
        summary["reference_wall_s"] = _stats([r[0] for r in refs])
        metrics = {k: summary[k]["median"] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    return {
        "workload": name,
        "why": WHY[name],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "environment": env,
        "inputs_sha256": inputs,
        "attempted": len(calls) + 1,
        "failed": failed,
        "fail_frac": failed / (len(calls) + 1),
        "errors": sorted({c.error for c in (warmup, *calls) if c.error}),
        "warmup_call": asdict(warmup),
        "calls": [asdict(c) for c in calls],
        "setup_calls_s": setup,
        "reference_calls": [{"wall_s": w, "cpu_s": c} for w, c in refs],
        "summary": summary,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def report(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, {record['size']}, "
          f"{record['seconds']} s, trace {'on' if record['trace'] else 'off'}): {record['why']}")
    for name, stats in record["summary"].items():
        if record["trace"] and name != "wall_s":
            continue
        unit = SUMMARY_UNITS[name]
        label = "plain wall_s" if record["trace"] else name
        print(f"  {label:<30} {stats['median']:12.4f} {unit:<6} "
              f"p25 {stats['p25']:.4f}  p75 {stats['p75']:.4f}  n={stats['n']}")
    if record["trace"]:
        for name, m in record["metrics"].items():
            print(f"  {name:<30} {m['value']:12.4f} {m['unit']}")
        if "trace.wall_s" in record["metrics"]:
            wall = record["metrics"]["trace.wall_s"]["value"]
            shares = ", ".join(f"{k} {record['metrics'][k]['value'] / wall:.1%}"
                               for k in TIMED_LAYERS)
            print(f"  share of traced wall: {shares}")
    print(f"  {'fail_frac':<30} {record['fail_frac']:12.4f} ratio  "
          f"({record['failed']} of {record['attempted']} calls)")
    for error in record["errors"]:
        print(f"  failure: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'smoke' runs tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "sectorfolio" / "cli.py").is_file():
        print(f"bench: no sectorfolio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    env = environment(cpus, pin_to_one_cpu())
    records = []
    try:
        for name in names:
            records.append(measure(name, args.seed, args.seconds, bool(args.trace), args.size,
                                   env))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for record in records:
        report(record)
        path = RUNS / "results" / (f"{record['workload']}-seed{args.seed}-trace{args.trace}"
                                   f"-{args.size}-{stamp}-{os.getpid()}.json")
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"  record: {path.relative_to(ROOT)}")

    prefix = {r["workload"]: f"{r['workload']}/" if len(records) > 1 else "" for r in records}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {prefix[r["workload"]] + k: m for r in records for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
