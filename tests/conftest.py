"""Shared test plumbing: the acceptance-criteria result ledger, and a
check that no test leaves a child process behind.

Acceptance tests record one (criterion, verdict) entry each; the terminal
summary prints them as single PASS/FAIL lines after the run so the gate's
outcome is readable at a glance even with output capture on.
"""

from __future__ import annotations

import glob
import os
import signal
from contextlib import suppress

import pytest

_ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_acceptance(num: int, description: str, passed: bool, detail: str = "") -> None:
    _ACCEPTANCE_RESULTS.append((num, description, passed, detail))


def pytest_terminal_summary(terminalreporter) -> None:
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, description, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {num}: {status} - {description}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)


def _children() -> set[int]:
    """Pids of the test process's children, unreaped ones included; empty
    where the kernel does not list them (``/proc/<pid>/task/*/children``)."""
    pids: set[int] = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with suppress(OSError), open(path) as fh:  # the thread may have ended
            pids.update(map(int, fh.read().split()))
    return pids


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test that leaves a child process running or unreaped; the
    leftovers are killed and reaped so later tests start clean."""
    before = _children()
    yield
    left = sorted(_children() - before)
    for pid in left:
        with suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with suppress(ChildProcessError):
            os.waitpid(pid, 0)
    if left:
        pytest.fail(f"process_left_running: child processes {left} outlived the test")
