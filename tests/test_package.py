import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import lexsem


def test_all_lists_resolvable_public_names():
    assert len(lexsem.__all__) == len(set(lexsem.__all__))
    for name in lexsem.__all__:
        assert not name.startswith("_"), name
        value = getattr(lexsem, name)
        assert not isinstance(value, types.ModuleType), name


def test_import_loads_no_heavy_standard_modules():
    # every start of the command would pay for these, and the package
    # needs none of them; dataclasses alone pulls in inspect, dis, ast
    # and tokenize
    src = str(Path(lexsem.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, lexsem.cli; print(' '.join(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True).stdout.split()
    for name in ("dataclasses", "inspect", "typing", "pathlib"):
        assert name not in out, name


def test_walkers_match_records_by_class_alone():
    # a class pattern with sub-patterns unpacks the fields it names on
    # every match, several times slower than reading them by name; the
    # records keep `__match_args__`, so callers may still match by position
    found = []
    for path in sorted(Path(lexsem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.MatchClass) and (node.patterns
                                                     or node.kwd_patterns):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _used_names(tree) -> set:
    """Every name read in a module: bare names, the names in string
    annotations, and the names `__all__` lists."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        anns = ([node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign))
                else [node.returns] if isinstance(node, ast.FunctionDef)
                else [])
        for ann in anns:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
        if (isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["__all__"]):
            used |= set(ast.literal_eval(node.value))
    return used


def test_every_imported_name_is_used():
    found = []
    for path in sorted(Path(lexsem.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = _used_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_the_coverage_gate_names_listed_lines_that_moved():
    import linecov

    stale = {("kernel.py", 748), ("kernel.py", 769), ("cli.py", 5)}
    unreached = {("kernel.py", 795), ("kernel.py", 774), ("cli.py", 9),
                 ("cli.py", 12), ("logic.py", 3)}
    assert linecov.moves(stale, unreached) == {("kernel.py", 748): 774,
                                               ("kernel.py", 769): 795}
