"""Source hygiene: every module, script and test file imports only names it uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "adamqlr"
# The package __init__ files import names only to re-export them.
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Imported names that never appear as a Name, an Attribute base included.

    Annotations are expressions in the tree, so a name used only in an
    annotation counts as used.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    MODULES + SCRIPTS + TESTS,
    ids=lambda p: str(p.relative_to(SRC if p in MODULES else ROOT)),
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_annotations_and_attribute_bases():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["line 3: Sequence"]
