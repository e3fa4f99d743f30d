"""Suite-wide pytest hooks.

The acceptance tests each cover one numbered criterion; the summary hook
prints a single pass/fail line per criterion at the end of the run so the
verdicts are visible even when every test passes.
"""

import re

_CRITERIA = {
    1: "partition exactness on the three-viewer overlap fixture",
    2: "beamformer identities (single-user MRT, equalization, bottleneck)",
    3: "subcarrier allocator matches the exhaustive oracle",
    4: "DC planner: no dearer than its CCP start, feasible binary solutions",
    5: "scheme ordering with 95% paired confidence",
    6: "mean power non-decreasing in the user count",
    7: "mean power non-increasing in the antenna count",
    8: "mean power non-increasing as viewing directions concentrate",
    9: "byte-identical CSV for identical config and seed",
}

_acceptance_outcomes = {}


def _criterion_of(nodeid):
    if "test_acceptance" not in nodeid:
        return None
    m = re.search(r"criterion_(\d+)", nodeid)
    return int(m.group(1)) if m else None


def pytest_runtest_logreport(report):
    num = _criterion_of(report.nodeid)
    if num is None:
        return
    if report.when == "call":
        _acceptance_outcomes[num] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        # fixture error or skip counts against the criterion
        _acceptance_outcomes[num] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_outcomes):
        verdict = {"passed": "PASS", "failed": "FAIL"}.get(
            _acceptance_outcomes[num], _acceptance_outcomes[num].upper())
        terminalreporter.write_line(
            f"criterion {num}: {verdict} - {_CRITERIA[num]}")
