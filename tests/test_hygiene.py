"""Source hygiene: every module, script and test file imports only names it
uses, every module uses each private name it defines at its top level, and
every tape op has its derivative check."""

import ast
import inspect
from pathlib import Path

import pytest

from adamqlr.tape import Tape

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


def unreferenced_privates(source: str) -> list[str]:
    """Top-level ``_private`` functions, classes and constants that the module
    never reads as a Name, an Attribute base included."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unreferenced_private_names(path):
    assert unreferenced_privates(path.read_text()) == []


def test_private_detector_sees_each_kind_of_definition():
    source = (
        "import numpy as np\n"
        "_CUT = 32\n"
        "_UNUSED: int = 1\n"
        "__all__ = ['f']\n"
        "class _Worker: pass\n"
        "def _softmax(z): return np.exp(z)\n"
        "def _used(x) -> _Worker: return x\n"
        "def f(x):\n"
        "    _local = 1\n"
        "    return np.split(_used(x), _CUT)\n"
    )
    assert unreferenced_privates(source) == ["line 3: _UNUSED", "line 6: _softmax"]


# Tape methods that record no op node: the leaves, and the sweeps over the tape.
NOT_OPS = {"const", "input", "replay_tangent", "backward"}


def op_cases(source: str) -> set[str]:
    """The keys of the top-level ``OPS`` dict in ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "OPS" for t in node.targets
        ):
            return {k.value for k in node.value.keys}
    return set()


def test_every_tape_op_has_a_derivative_check():
    # A case named after the op, or the op and a suffix (`affine_input`),
    # runs its rules against central differences in test_tape.py.
    cases = op_cases((ROOT / "tests" / "test_tape.py").read_text())
    ops = {
        name
        for name, fn in inspect.getmembers(Tape, inspect.isfunction)
        if not name.startswith("_") and name not in NOT_OPS
    }
    covered = {op for op in ops for c in cases if c == op or c.startswith(op + "_")}
    assert ops and sorted(ops - covered) == []
