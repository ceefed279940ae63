"""Golden CLI output: every fixture lexicon with its trees, in every format,
with and without `--all-readings`, at the default fuel; and the
copredication tables of the two paper lexica in `--format verdict`.

Each golden file holds `exit: N` on its first line and the exact stdout
after it.  To record them again after an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io

import pytest

from lexsem.cli import FORMATS, CliConfig, run

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
LEXICA = ("montague", "liverpool", "assinatura", "fanout")
CASES = [(lex, fmt, every) for lex in LEXICA for fmt in FORMATS
         for every in (False, True)]
# each predicate alone, each ordered pair under one AND and both
# bracketings of each ordered triple, over one shared argument
TABLES = ("liverpool", "assinatura")


def _name(lex, fmt, every):
    return f"{lex}-{fmt}{'-all' if every else ''}"


def _output(lex, fmt, every, trees="trees"):
    config = CliConfig(str(FIXTURES / f"{lex}.mgl"),
                       str(FIXTURES / f"{trees}_{lex}.txt"), fmt, every, 10000)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(config)
    return f"exit: {code}\n{out.getvalue()}"


@pytest.mark.parametrize("lex,fmt,every", CASES,
                         ids=[_name(*case) for case in CASES])
def test_cli_golden(lex, fmt, every):
    expected = (GOLDEN / f"{_name(lex, fmt, every)}.txt").read_text()
    assert _output(lex, fmt, every) == expected


@pytest.mark.parametrize("lex", TABLES)
def test_copredication_table_golden(lex):
    expected = (GOLDEN / f"{lex}-table-verdict.txt").read_text()
    assert _output(lex, "verdict", False, "table") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{_name(*case)}.txt").write_text(_output(*case))
    for lex in TABLES:
        (GOLDEN / f"{lex}-table-verdict.txt").write_text(
            _output(lex, "verdict", False, "table"))
