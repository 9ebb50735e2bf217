"""Shared test plumbing: the acceptance summary printed after the run, and a
fixture that empties the with-replacement caches."""

from __future__ import annotations

import pytest

import dpconv.mechanisms

ACCEPTANCE_LINES: list[str] = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"{name}: {status}"
    if detail:
        line += f"  ({detail})"
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def clear_wr_caches() -> None:
    """Forget every with-replacement loss table and log weight vector."""
    dpconv.mechanisms._wr_loss_table.cache_clear()
    dpconv.mechanisms._wr_log_weights.cache_clear()


@pytest.fixture
def fresh_wr_tables():
    """Empty with-replacement caches on entry and again on exit, for a test
    that counts a table's kernel rows or patches a constant a table is built
    from: such a table must neither come from nor stay in the cache."""
    clear_wr_caches()
    yield
    clear_wr_caches()
