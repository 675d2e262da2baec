"""The session-level wall-clock budget in the root ``conftest.py``."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest


def load_root_conftest():
    path = Path(__file__).resolve().parent.parent / "conftest.py"
    spec = importlib.util.spec_from_file_location("root_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(nodeid, duration):
    return SimpleNamespace(nodeid=nodeid, duration=duration)


def test_budget_counts_only_unit_tests_and_fails_a_slow_session():
    budget = load_root_conftest().SuiteBudget(1.0)
    session = SimpleNamespace(exitstatus=pytest.ExitCode.OK)
    budget.pytest_runtest_logreport(report("tests/test_a.py::t", 0.8))
    budget.pytest_runtest_logreport(report("benchmarks/test_b.py::t", 5.0))
    budget.pytest_sessionfinish(session)
    assert session.exitstatus == pytest.ExitCode.OK
    budget.pytest_runtest_logreport(report("tests/test_a.py::u", 0.3))
    budget.pytest_sessionfinish(session)
    assert session.exitstatus == pytest.ExitCode.TESTS_FAILED


def test_budget_keeps_an_existing_failure_status():
    budget = load_root_conftest().SuiteBudget(0.0)
    session = SimpleNamespace(exitstatus=pytest.ExitCode.INTERRUPTED)
    budget.pytest_runtest_logreport(report("tests/test_a.py::t", 0.1))
    budget.pytest_sessionfinish(session)
    assert session.exitstatus == pytest.ExitCode.INTERRUPTED
