"""The root conftest's session guards: clean-checkout check, test ceiling."""

import faulthandler
from pathlib import Path

import pytest

ROOT_CONFTEST = Path(__file__).resolve().parent.parent / "conftest.py"


@pytest.fixture
def guards(pytestconfig):
    """The root ``conftest.py`` module pytest loaded for this session."""
    for plugin in pytestconfig.pluginmanager.get_plugins():
        if Path(getattr(plugin, "__file__", "") or "").resolve() == ROOT_CONFTEST:
            return plugin
    pytest.fail("root conftest.py is not loaded")


def test_status_changes_compares_start_with_end(guards):
    dirty = frozenset({" M README.md", "?? notes.txt"})
    # An already-dirty tree that the run leaves alone passes.
    assert guards.status_changes(dirty, frozenset(dirty)) == []
    # Lines that appear or vanish are both reported, sorted.
    after = frozenset({" M README.md", " M benchmarks/results/fig09.csv"})
    assert guards.status_changes(dirty, after) == [
        " M benchmarks/results/fig09.csv",
        "?? notes.txt",
    ]
    # Outside a git checkout there is nothing to compare.
    assert guards.status_changes(None, None) == []
    assert guards.status_changes(dirty, None) == []


def test_stdlib_watchdog_arms_and_cancels(guards, request, monkeypatch):
    """Without pytest-timeout, each test runs under a faulthandler timer."""
    if guards.HAVE_PYTEST_TIMEOUT:
        pytest.skip("pytest-timeout enforces the ceiling itself")
    calls = []
    monkeypatch.setattr(
        faulthandler,
        "dump_traceback_later",
        lambda seconds, exit, file: calls.append(("arm", seconds, exit)),
    )
    monkeypatch.setattr(
        faulthandler, "cancel_dump_traceback_later", lambda: calls.append("cancel")
    )
    hook = guards.pytest_runtest_protocol(request.node, None)
    next(hook)
    assert calls == [("arm", 300.0, True)]  # pytest.ini's ``timeout = 300``
    with pytest.raises(StopIteration):
        hook.send(None)
    assert calls == [("arm", 300.0, True), "cancel"]


@pytest.mark.timeout(7)
def test_timeout_marker_overrides_the_ini_ceiling(guards, request):
    assert guards.timeout_for(request.node) == 7.0
