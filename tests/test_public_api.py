"""The names the benchmark, its tracer and the README look up resolve, the
README's library example runs, and names the package dropped stay gone.

perfbench/ is read as text, not imported.  Its tracer skips a name that
does not resolve, so there a removed name would not fail but only leave
its metric unreported.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import irisvault

ROOT = Path(__file__).resolve().parent.parent
RUN = (ROOT / "perfbench" / "run.py").read_text()
LAYERS = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
README = (ROOT / "README.md").read_text()


def layers_constant(name):
    for node in LAYERS.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/layers.py defines no {name}")


def test_benchmark_names_resolve():
    names = set(re.findall(r"\biv\.([A-Za-z_]\w*)", RUN))
    assert {"build_vault", "open_vault", "read_vault", "write_vault", "UnlockError"} <= names
    assert sorted(n for n in names if not hasattr(irisvault, n)) == []


def test_traced_names_resolve():
    wanted = [(module, attr) for module, attr, _, _ in layers_constant("SPANS")]
    wanted.append(layers_constant("SUBSET_CHECK"))
    assert len(wanted) == 11
    missing = [(module, attr) for module, attr in wanted
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_readme_library_names_resolve():
    block = re.search(r"^from irisvault import \(([^)]*)\)", README, re.MULTILINE)
    names = [n.strip() for n in block.group(1).split(",") if n.strip()]
    assert "build_vault" in names
    assert [n for n in names if not hasattr(irisvault, n)] == []


def test_readme_library_block_runs():
    # The README's library example, asserts included, as a reader would paste it.
    [block] = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("module, name", [
    ("irisvault", "FormatError"),
    ("irisvault.errors", "FormatError"),
    ("irisvault", "binom"),
    ("irisvault", "evaluations"),
    ("irisvault", "min_entropy"),
    ("irisvault", "hardened_range"),
    ("irisvault.security", "binom"),
    ("irisvault.security", "evaluations"),
    ("irisvault.security", "min_entropy"),
    ("irisvault.security", "hardened_range"),
    ("irisvault", "eye_color_code"),
    ("irisvault.password", "eye_color_code"),
    ("irisvault", "seed_from_password"),
    ("irisvault.password", "seed_from_password"),
    ("irisvault.password", "ZERO_SEED_FALLBACK"),
    ("irisvault", "lock_units"),
    ("irisvault.vault", "lock_units"),
    ("irisvault.vault", "_cipher"),
    ("irisvault.vault", "ZERO_SEED_FALLBACK"),
    ("irisvault.vault", "VAULT_MAGICS"),
    ("irisvault.templates", "read_vault"),
    ("irisvault.templates", "write_vault"),
])
def test_removed_name_is_absent(module, name):
    assert not hasattr(importlib.import_module(module), name)


# The package's __init__ re-exports what it imports.
MODULES = [p for p in sorted((ROOT / "src" / "irisvault").glob("*.py")) if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # Every name a module imports is read somewhere in it; __future__
    # imports switch on features and bind no name.
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_bool_is_refused_only_in_errors(path):
    # What counts as a legal int is decided once, by errors.check_int and
    # errors.check_words; a module that asks isinstance(..., bool) itself
    # has grown a second rule.
    def names_bool(node):
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(e, ast.Name) and e.id == "bool" for e in elts)

    calls = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and len(node.args) == 2 and names_bool(node.args[1])]
    assert [f"line {node.lineno}" for node in calls] == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_memoryview_is_taken_only_in_errors(path):
    # What counts as bytes-like input, and how its length is counted, is
    # decided once, by errors.check_bytes; a module that builds a memoryview
    # itself has grown a second rule.
    calls = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "memoryview"]
    assert [f"line {node.lineno}" for node in calls] == []
