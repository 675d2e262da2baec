"""Root pytest configuration: wall-clock guards for the suite.

A simulator bug that stalls the event loop (e.g. a zero-delay wakeup cycle)
used to freeze the whole suite.  Per-test timeouts turn such hangs into
failures within seconds.  When the ``pytest-timeout`` plugin is installed
(``pip install .[test]``) it provides the enforcement; this module is a
dependency-free fallback for environments without it, implementing the same
``timeout`` ini option and ``@pytest.mark.timeout(seconds)`` marker with a
SIGALRM-based interrupt (POSIX main thread only -- exactly where this suite
runs).

A second, session-level guard keeps the unit suite fast: when the items
under ``tests/`` together take longer than :data:`SUITE_BUDGET_SECONDS`,
the session fails even if every test passed.
"""

from __future__ import annotations

import importlib.util
import signal

import pytest

_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None
_HAVE_SIGALRM = hasattr(signal, "SIGALRM")

#: Wall-clock budget for all ``tests/`` items together (setup, call and
#: teardown).  The unit suite takes well under a minute; the bound leaves
#: headroom for slow CI machines while catching a suite that has grown slow.
SUITE_BUDGET_SECONDS = 240.0


class SuiteTimeout(Exception):
    """Raised inside a test that exceeded its wall-clock budget."""


def pytest_addoption(parser):
    if not _HAVE_PYTEST_TIMEOUT:
        parser.addini(
            "timeout",
            "Per-test timeout in seconds (fallback implementation; install "
            "pytest-timeout for the full-featured plugin)",
            default="0",
        )


def pytest_configure(config):
    config.pluginmanager.register(SuiteBudget(SUITE_BUDGET_SECONDS),
                                  "suite-budget")
    if not _HAVE_PYTEST_TIMEOUT:
        config.addinivalue_line(
            "markers",
            "timeout(seconds): override the per-test wall-clock timeout",
        )


def _budget_seconds(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    try:
        return float(item.config.getini("timeout") or 0)
    except (TypeError, ValueError):
        return 0.0


# The legacy hookwrapper protocol keeps this fallback importable on old
# pytest versions (wrapper=True needs pytest >= 7.4, and minimal
# environments are exactly where this fallback runs).
@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if _HAVE_PYTEST_TIMEOUT or not _HAVE_SIGALRM:
        # pytest-timeout enforces the budget itself; without SIGALRM
        # (non-POSIX) there is no safe interruption mechanism.
        yield
        return
    seconds = _budget_seconds(item)
    if seconds <= 0:
        yield
        return

    def _on_alarm(_signum, _frame):
        raise SuiteTimeout(
            f"{item.nodeid} exceeded the {seconds:.0f}s per-test timeout "
            "(fallback guard; see conftest.py)")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class SuiteBudget:
    """Plugin that sums the time of ``tests/`` items (setup, call and
    teardown) and fails the session when it exceeds the budget."""

    def __init__(self, budget_seconds: float):
        self.budget_seconds = budget_seconds
        self.seconds = 0.0

    def pytest_runtest_logreport(self, report):
        if report.nodeid.startswith("tests/"):
            self.seconds += report.duration

    def pytest_sessionfinish(self, session):
        if self.seconds > self.budget_seconds and \
                session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        if self.seconds > self.budget_seconds:
            terminalreporter.write_sep(
                "=", f"tests/ took {self.seconds:.1f}s, over the "
                     f"{self.budget_seconds:.0f}s suite budget (conftest.py)",
                red=True)
