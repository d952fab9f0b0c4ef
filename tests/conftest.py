"""Acceptance-criterion bookkeeping.

Tests tagged @pytest.mark.criterion(n) feed a per-criterion verdict
printed at the end of the run: FAIL if any tagged test failed, SKIPPED
if all were skipped, PASS otherwise.
"""

import pytest

ACCEPTANCE_CRITERIA = {
    1: "sector backtests on quoted buy/sell prices within 1.0 pp",
    2: "summary over all sector results reproduces the winner pattern",
    3: "portfolio variance equals the 55-term expansion within 1e-12",
    4: "sampled frontier matches brute-force scan, bitwise across reruns and BLAS thread counts",
    5: "randomized invariant suites, >= 1000 cases each",
    6: "optional live-data check: training stats within 2 pp",
    7: "sparse ticker excluded, pipeline proceeds with the rest",
}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(n): acceptance criterion exercised by this test",
    )
    config._criterion_outcomes = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    # Record the call phase, plus setup-phase skips and errors.
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        bucket = item.config._criterion_outcomes.setdefault(marker.args[0], [])
        bucket.append(report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = getattr(config, "_criterion_outcomes", None)
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(outcomes):
        results = outcomes[number]
        if any(r == "failed" for r in results):
            status = "FAIL"
        elif all(r == "skipped" for r in results):
            status = "SKIPPED"
        else:
            status = "PASS"
        label = ACCEPTANCE_CRITERIA.get(number, "unlabeled")
        terminalreporter.write_line(
            f"criterion {number}: {status} [{len(results)} checks] {label}"
        )
