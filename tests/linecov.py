"""A line-coverage gate for `src/lexsem`, on `sys.settrace` alone.

Run the suite with the plugin loaded:

    PYTHONPATH=src:tests python -m pytest -q -p linecov

Every statement line in a function body of the package, docstrings
excepted, must run in some test, or be listed in
`tests/fixtures/unreached.txt` as `file:line reason`.  The session fails
on an unreached line that is not listed, and on a listed line that a
test reached.  The tracer is installed again before each test, since a
`RecursionError` raised while tracing switches it off.  Its functions are
module-level functions, not closures: a closure that returns itself is a
reference cycle per traced frame, which a test that counts garbage
would see.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lexsem"
ALLOWLIST = Path(__file__).resolve().parent / "fixtures" / "unreached.txt"

_FILES = {str(p): p.name for p in PACKAGE.glob("*.py")}
_REACHED = set()  # (file name, line)


def _trace_call(frame, event, arg):
    if frame.f_code.co_filename in _FILES:
        return _trace_line
    return None


def _trace_line(frame, event, arg):
    if event == "line":
        _REACHED.add((_FILES[frame.f_code.co_filename], frame.f_lineno))
    return _trace_line


def pytest_configure(config):
    # collection imports test modules, which may call the package
    sys.settrace(_trace_call)


def pytest_runtest_protocol(item, nextitem):
    sys.settrace(_trace_call)


def body_lines(source):
    """The first line of every statement in a function body of `source`,
    docstrings excepted."""
    lines, docstrings = set(), set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = fn.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.add(first.lineno)
        lines.update(node.lineno for stmt in fn.body for node in ast.walk(stmt)
                     if isinstance(node, ast.stmt))
    # a nested function's docstring is a statement of the outer body too
    return lines - docstrings


def read_allowlist(text):
    """The `(file name, line)` pairs of `file:line reason` lines; blank
    lines and lines starting with `#` are skipped."""
    listed = set()
    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        where, _, reason = raw.partition(" ")
        name, _, line = where.partition(":")
        if not line.isdigit() or not reason.strip():
            raise ValueError(f"{ALLOWLIST.name}: not 'file:line reason': {raw!r}")
        listed.add((name, int(line)))
    return listed


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    body = {(name, line) for path, name in _FILES.items()
            for line in body_lines(Path(path).read_text())}
    listed = read_allowlist(ALLOWLIST.read_text())
    unreached = sorted(body - _REACHED - listed)
    stale = sorted(listed & _REACHED)
    unknown = sorted(listed - body)
    report = ([f"unreached: {n}:{i}" for n, i in unreached]
              + [f"listed but reached: {n}:{i}" for n, i in stale]
              + [f"listed but not a function-body line: {n}:{i}"
                 for n, i in unknown])
    session.config._linecov_report = report
    if report:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    report = getattr(config, "_linecov_report", None)
    if report is None:
        return
    terminalreporter.section("line coverage of src/lexsem")
    for line in report or ["every function-body line reached or listed"]:
        terminalreporter.write_line(line)
