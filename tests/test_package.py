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
