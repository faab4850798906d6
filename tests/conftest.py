"""Shared pytest plumbing.

The acceptance tests measure things worth seeing even when everything
passes (judge metrics, ablation deltas, filter gaps). They record one
line each through the ``acceptance_note`` fixture and the hook below
echoes them after the test report.
"""

import atexit
import os
import shutil
import tempfile

import pytest

# Hypothesis keeps its caches (unicode tables, collected constants) under
# .hypothesis/ in the working directory even with database=None. Point them
# at a directory of this session, before any test touches them, so that a
# run leaves the checkout as it found it.
_session_dir = tempfile.mkdtemp(prefix="geckit-tests-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = os.path.join(_session_dir, "hypothesis")
atexit.register(shutil.rmtree, _session_dir, ignore_errors=True)


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # pytest-benchmark, where installed, makes its default storage folder
    # (.benchmarks/) at start-up; keep that in the session directory too.
    if getattr(config.option, "benchmark_storage", None) == "file://./.benchmarks":
        config.option.benchmark_storage = f"file://{_session_dir}/benchmarks"

_notes: list[str] = []


@pytest.fixture(scope="session")
def acceptance_note():
    """Callable that records a one-line measurement for the summary."""
    return _notes.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _notes:
        terminalreporter.section("acceptance notes")
        for line in _notes:
            terminalreporter.write_line(line)
