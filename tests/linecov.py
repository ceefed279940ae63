"""A line-coverage gate for `src/lexsem`, on `sys.settrace` alone.

Run the suite with the plugin loaded:

    PYTHONPATH=src:tests python -m pytest -q -p linecov

Every statement line in a function body of the package, docstrings
excepted, must run in some test, or carry a trailing comment
`# untraced: <reason>` on the statement's first line.  The session fails
on an unreached line with no mark, on a marked line that a test reached,
and on a mark anywhere but a function-body statement line.
The tracer is installed again before each test, since a
`RecursionError` raised while tracing switches it off.  Its functions are
module-level functions, not closures: a closure that returns itself is a
reference cycle per traced frame, which a test that counts garbage
would see.
"""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lexsem"
# a mark with no reason is not a mark
MARK = re.compile(r"#\s*untraced:\s*\S")

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


def marked_lines(source):
    """The lines of `source` with an `# untraced: <reason>` comment."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0] for tok in tokens
            if tok.type == tokenize.COMMENT and MARK.match(tok.string)}


def report(body, reached, marked):
    """The gate's faults, given sets of `(file name, line)`: function-body
    lines, lines a test ran, and marked lines."""
    return ([f"unreached: {n}:{i}" for n, i in sorted(body - reached - marked)]
            + [f"marked but reached: {n}:{i}" for n, i in sorted(marked & reached)]
            + [f"marked but not a function-body line: {n}:{i}"
               for n, i in sorted(marked - body)])


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    body, marked = set(), set()
    for path, name in _FILES.items():
        source = Path(path).read_text()
        body.update((name, i) for i in body_lines(source))
        marked.update((name, i) for i in marked_lines(source))
    session.config._linecov_report = report(body, _REACHED, marked)
    if session.config._linecov_report:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    faults = getattr(config, "_linecov_report", None)
    if faults is None:
        return
    terminalreporter.section("line coverage of src/lexsem")
    for line in faults or ["every function-body line reached or marked"]:
        terminalreporter.write_line(line)
