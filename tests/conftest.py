import sys
from pathlib import Path

import pytest

from lexsem import load_lexicon

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def deep_shared_lexicon(arrows: int) -> str:
    """A word `w` whose type has `arrows` arrows, and two predicates `p`
    and `s` of its referents."""
    ty = " -> ".join(["S"] * (arrows + 1))
    return (f"sorts: S\npred c : {ty}\npred p : ({ty}) -> t\n"
            f"pred s : ({ty}) -> t\nword w : {ty} = #c\n"
            f"word p : ({ty}) -> t = #p\nword s : ({ty}) -> t = #s\n")


@pytest.fixture(scope="session")
def montague():
    return load_lexicon(fixture_text("montague.mgl"))


@pytest.fixture(scope="session")
def liverpool():
    return load_lexicon(fixture_text("liverpool.mgl"))


@pytest.fixture(scope="session")
def assinatura():
    return load_lexicon(fixture_text("assinatura.mgl"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for line in results:
        terminalreporter.write_line(line)
