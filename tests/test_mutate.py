"""The mutation kit in tools/mutate.py cannot rot silently: each mutant's
old text occurs exactly once in src/, in the file it names, and each test
it names exists. Running the mutants themselves is left to the kit."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

SOURCES = {p: p.read_text(encoding="utf-8") for p in (ROOT / "src").rglob("*.py")}


@pytest.mark.parametrize("mutant", mutate.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_in_src(mutant):
    assert sum(text.count(mutant.old) for text in SOURCES.values()) == 1
    assert SOURCES[ROOT / mutant.path].count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutate.MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        *classes, func = names
        assert all(f"\nclass {c}" in text for c in classes), node
        assert f"def {func}(" in text, node


def test_names_are_unique():
    names = [m.name for m in mutate.MUTANTS]
    assert len(names) == len(set(names))
