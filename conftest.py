"""Pytest bootstrap: make ``src/`` importable and keep test runs hermetic.

The environment used for reproduction has no network access, so
``pip install -e .`` cannot fetch the ``wheel`` build dependency.  This
shim keeps ``pytest tests/`` and ``pytest benchmarks/`` working from a
plain checkout; with a proper editable install it is a harmless no-op.

Two session guards ride along:

* **A run leaves the checkout as it found it.**  The session records
  ``git status --porcelain`` when it starts and fails at the end if the
  set of status lines changed, naming the lines that appeared or
  vanished.  An already-dirty tree still runs; outside a git checkout,
  and under ``REPRO_UPDATE_BASELINES=1`` (whose purpose is rewriting the
  committed baselines), the guard is off.
* **A wedged test cannot hang the run.**  CI enforces ``pytest.ini``'s
  ``timeout`` through ``pytest-timeout``.  Where that plugin is not
  installed, the same ceiling (or a test's ``@pytest.mark.timeout(N)``)
  arms a stdlib ``faulthandler`` watchdog around each test: on expiry
  it dumps every thread's stack to the terminal and exits the run.
"""

from __future__ import annotations

import faulthandler
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).parent
_SRC = str(_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from benchmarks.perf.trajectory import UPDATE_BASELINES  # noqa: E402

try:
    import pytest_timeout  # noqa: F401
except ImportError:
    HAVE_PYTEST_TIMEOUT = False
else:
    HAVE_PYTEST_TIMEOUT = True

_STATUS_AT_START = pytest.StashKey["frozenset[str] | None"]()
_WATCHDOG_FD = pytest.StashKey[int]()


def git_status(root: Path) -> frozenset[str] | None:
    """The checkout's ``git status --porcelain`` lines; ``None`` outside git."""
    try:
        result = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(root), "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return frozenset(result.stdout.splitlines())


def status_changes(
    before: frozenset[str] | None, after: frozenset[str] | None
) -> list[str]:
    """Status lines that appeared or vanished between two snapshots.

    Empty when either snapshot is unknown (no git checkout).
    """
    if before is None or after is None:
        return []
    return sorted(before ^ after)


def timeout_for(item: pytest.Item) -> float:
    """Seconds a test may run: its ``timeout`` marker, else the ini value."""
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    return float(item.config.getini("timeout") or 0)


def pytest_addoption(parser: pytest.Parser) -> None:
    if not HAVE_PYTEST_TIMEOUT:
        parser.addini(
            "timeout",
            "per-test wall-clock ceiling in seconds (stdlib fallback for "
            "pytest-timeout: faulthandler dumps all stacks and exits)",
            default="0",
        )


def pytest_configure(config: pytest.Config) -> None:
    if not HAVE_PYTEST_TIMEOUT:
        # Capture is suspended here, so this duplicates the terminal's
        # stderr — not a per-test capture file the exit would discard.
        config.stash[_WATCHDOG_FD] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config: pytest.Config) -> None:
    fd = config.stash.get(_WATCHDOG_FD, None)
    if fd is not None:
        os.close(fd)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item: pytest.Item, nextitem):
    seconds = 0.0 if HAVE_PYTEST_TIMEOUT else timeout_for(item)
    if seconds > 0:
        faulthandler.dump_traceback_later(
            seconds, exit=True, file=item.config.stash[_WATCHDOG_FD]
        )
    try:
        return (yield)
    finally:
        if seconds > 0:
            faulthandler.cancel_dump_traceback_later()


def pytest_sessionstart(session: pytest.Session) -> None:
    if not UPDATE_BASELINES:
        session.config.stash[_STATUS_AT_START] = git_status(_ROOT)


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session: pytest.Session, exitstatus) -> None:
    before = session.config.stash.get(_STATUS_AT_START, None)
    if before is None:
        return
    changes = status_changes(before, git_status(_ROOT))
    if not changes:
        return
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
    message = "this test run changed `git status --porcelain`:\n" + "\n".join(
        f"    {line}" for line in changes
    )
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line(message, red=True, bold=True)
    else:
        print(message, file=sys.stderr)
