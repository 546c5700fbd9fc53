"""Source hygiene: every module, script and test file imports only names it
uses, every module uses each private name it defines at its top level, every
public function, class and method has a caller outside the tests, every
tape op, on the tape or among the test oracle ops, has its derivative
check, only the CLI and its record writer write files, and no module reads a
`.kind` attribute."""

import ast
import inspect
import re
from pathlib import Path

import pytest

from adamqlr.tape import Tape

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "adamqlr"
# The package __init__ files import names only to re-export them.
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


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


def public_definitions(source: str) -> list[str]:
    """Top-level public functions and classes in ``source``."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def read_names(source: str) -> set[str]:
    """Every name ``source`` reads, as a Name or as an Attribute's attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    # Callers are src/ modules, scripts and the benchmark; a re-export in an
    # __init__ file is not a caller.
    read = set().union(*(read_names(p.read_text()) for p in MODULES + SCRIPTS + PERFBENCH))
    defined = {
        ".".join(path.relative_to(SRC).with_suffix("").parts) + "." + name: name
        for path in MODULES
        for name in public_definitions(path.read_text())
    }
    dead = sorted(key for key, name in defined.items() if name not in read)
    assert dead == []


def public_methods(source: str) -> list[str]:
    """``Class.method`` for each public method of each class in ``source``."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


# Public methods whose only callers are tests: hooks of the test lifecycle.
TEST_HOOKS = {
    # Zeroes the process-wide op counters, so a test counts one run's calls.
    "autodiff.OpCounters.reset",
    # Stops the matmul worker thread the `halves` fixture started; a run's
    # worker otherwise lives as long as its process.
    "tape.HalfWorker.close",
}


def test_every_public_method_has_a_caller_outside_tests():
    """Each public method of a src/ class is read by name in src/, a script or the benchmark.

    The check is by name, as for top-level names: a method counts as
    called when any caller reads an attribute or a name spelled like it.
    So it cannot see a method no caller runs when other code reads its
    name: as methods of ``Tape``, the generic ops ``sub``, ``scale``,
    ``matmul``, ``index`` and ``sum`` would each pass, read as the CLI's
    subparsers, gradcheck's scale, ``tape.matmul``, bootstrap's index and
    ``ndarray.sum``.
    """
    read = set().union(*(read_names(p.read_text()) for p in MODULES + SCRIPTS + PERFBENCH))
    dead = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts) + "." + method
        for path in MODULES
        for method in public_methods(path.read_text())
        if method.split(".")[1] not in read
    )
    assert dead == sorted(TEST_HOOKS)


def test_caller_detector_sees_names_and_attributes():
    source = (
        "import numpy as np\n"
        "class Spec: pass\n"
        "def make(spec: Spec): return np.linalg.norm(spec)\n"
        "def _helper(): pass\n"
        "async def fetch(): pass\n"
    )
    assert public_definitions(source) == ["Spec", "make", "fetch"]
    assert read_names(source) == {"np", "Spec", "linalg", "norm", "spec"}


def test_method_detector_sees_each_class_and_skips_private_methods():
    source = (
        "class Worker:\n"
        "    def __init__(self): self._pool = None\n"
        "    def close(self): self._stop()\n"
        "    def _stop(self): pass\n"
        "    async def wait(self): pass\n"
        "    size = 1\n"
        "def run(w: Worker):\n"
        "    class Local:\n"
        "        def step(self): w.close()\n"
        "    return Local\n"
    )
    assert public_methods(source) == ["Worker.close", "Worker.wait", "Local.step"]
    assert "close" in read_names(source) and "wait" not in read_names(source)


# Tape methods that record no op node: the leaves, and the sweeps over the tape.
NOT_OPS = {"const", "input", "replay_tangent", "backward"}
# The generic ops, recorded by the test oracles only.
ORACLE_OPS = ROOT / "tests" / "oracle_ops.py"


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
    # runs its rules against central differences in test_tape.py. The ops
    # are the tape's methods and the oracle module's public functions.
    cases = op_cases((ROOT / "tests" / "test_tape.py").read_text())
    tape_ops = {
        name
        for name, fn in inspect.getmembers(Tape, inspect.isfunction)
        if not name.startswith("_") and name not in NOT_OPS
    }
    oracle_ops = set(public_definitions(ORACLE_OPS.read_text()))
    for ops in (tape_ops, oracle_ops):
        covered = {op for op in ops for c in cases if c == op or c.startswith(op + "_")}
        assert ops and sorted(ops - covered) == []


# The modules that may write files: the CLI, and the record writer it calls.
# Every other module hands its results to them.
WRITERS = {"bench/cli.py", "bench/records.py"}
_WRITE_MODE = re.compile(r"[rbt+]*[wax][rwaxbt+]*")


def file_writes(source: str) -> list[str]:
    """Calls that open a file for writing: an ``open`` (a function or a
    method) given a ``w``, ``a`` or ``x`` mode, ``write_text`` and ``write_bytes``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            given = node.args + [k.value for k in node.keywords]
            if any(
                isinstance(a, ast.Constant) and isinstance(a.value, str)
                and _WRITE_MODE.fullmatch(a.value)
                for a in given
            ):
                found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_write_detector_sees_each_way_to_write():
    source = (
        "import gzip\n"
        "from pathlib import Path\n"
        "open('data.csv')\n"
        "open(p, 'rb')\n"
        "open(p, 'w')\n"
        "gzip.open(p, mode='ab')\n"
        "Path(p).open('x')\n"
        "Path(p).write_text('')\n"
        "p.write_bytes(b'')\n"
    )
    assert file_writes(source) == [
        "line 5: open", "line 6: open", "line 7: open", "line 8: write_text",
        "line 9: write_bytes",
    ]


def test_only_the_cli_and_the_record_writer_write_files():
    # A runner yields its results; the CLI decides where they go.
    names = {path.relative_to(SRC).as_posix(): path for path in MODULES}
    assert WRITERS <= set(names)
    writes = {name: file_writes(names[name].read_text()) for name in set(names) - WRITERS}
    assert {name: found for name, found in writes.items() if found} == {}


def kind_reads(source: str) -> list[str]:
    """Every load of an attribute named ``kind``."""
    return [
        f"line {node.lineno}: .kind"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "kind"
        and isinstance(node.ctx, ast.Load)
    ]


def test_kind_detector_sees_loads_only():
    source = "kind = 'x'\nd['kind']\ncfg.optimizer.kind\nobj.kind = 1\ngetattr(cls, 'kind')\n"
    assert kind_reads(source) == ["line 3: .kind"]


def test_no_module_reads_a_kind_attribute():
    # A config block's "kind" tag lives in the codec alone; code that
    # dispatches on an optimizer or a loader looks up its class.
    reads = {path.relative_to(SRC).as_posix(): kind_reads(path.read_text()) for path in MODULES}
    assert {name: found for name, found in reads.items() if found} == {}
