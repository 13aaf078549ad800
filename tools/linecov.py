"""Line coverage of the viewfuse package, as a pytest plugin.

    PYTHONPATH=src:tools python -m pytest -q -p linecov

After the run it prints `executable N missed M skipped K` and each
missed line as `file:line`, and a run that missed a line fails. It uses
only the standard library: `sys.settrace` and `threading.settrace`
record the lines run on every thread, and a line counts as executable
when a code object compiled from the source maps an instruction to it
(`co_lines()`). It writes no file. Lines run in a child process are not
seen; a line that ends in `# linecov: not run in-process (<reason>)` is
skipped. `co_lines()` differs between Python versions, so compare counts
only on one version.
"""

import importlib.util
import os
import re
import sys
import threading
from pathlib import Path

import pytest

_spec = importlib.util.find_spec("viewfuse")  # locates the package without importing it
PACKAGE_DIR = Path(_spec.submodule_search_locations[0]).resolve()
SOURCES = {str(p): p for p in sorted(PACKAGE_DIR.rglob("*.py"))}

_hits: dict[str, set[int]] = {name: set() for name in SOURCES}
_known: dict[str, str | None] = {}  # co_filename -> its key in SOURCES, or None
_SKIP = re.compile(r"# linecov: not run in-process \(.+\)$")
_report: list[str] = []


def _local(frame, event, arg):
    if event == "line":
        _hits[_known[frame.f_code.co_filename]].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _known:
        real = os.path.realpath(filename)
        _known[filename] = real if real in SOURCES else None
    return _local if _known[filename] is not None else None


def executable_lines(path: Path) -> set[int]:
    """The lines some instruction of the compiled source maps to."""
    lines, stack = set(), [compile(path.read_bytes(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # None marks artificial instructions; line 0 is a module's entry,
        # which no line event reports
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before conftest.py files import the package, so its module-level lines count
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    executable = missed = skipped = 0
    lost_lines = []
    for name, path in SOURCES.items():
        text = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        marked = {line for line in lines if _SKIP.search(text[line - 1])}
        lost = sorted(lines - marked - _hits[name])
        executable += len(lines) - len(marked)
        missed += len(lost)
        skipped += len(marked)
        rel = path.relative_to(PACKAGE_DIR.parent)
        lost_lines.extend(f"{rel}:{line}" for line in lost)
    _report[:] = [f"executable {executable} missed {missed} skipped {skipped}", *lost_lines]
    if missed and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("-", "line coverage")
    for line in _report:
        terminalreporter.write_line(line)
