"""The public surface of the package: what it exports, and what it no longer does."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import toricflex

# Deleted from the library, or (kernel_basis, is_complete) moved into the tests.
REMOVED = (
    "FaceLattice",
    "NotPureError",
    "_INDENT",
    "_add_input",
    "_add_output",
    "_add_verbose",
    "_pretty",
    "_span_frame",
    "adjugate",
    "build_chart",
    "cone_dim",
    "face_lattice",
    "facet_normals",
    "is_complete",
    "is_nondegenerate",
    "kernel_basis",
    "lru_cache",
    "orbit_codim",
    "report_from_dict",
)


def test_all_is_sorted_without_duplicates():
    assert toricflex.__all__ == sorted(set(toricflex.__all__))


def test_every_exported_name_resolves():
    assert [name for name in toricflex.__all__ if not hasattr(toricflex, name)] == []


def test_star_import():
    namespace = {}
    exec("from toricflex import *", namespace)
    assert set(toricflex.__all__) <= namespace.keys()


def test_removed_names_are_gone():
    modules = [toricflex] + [
        importlib.import_module(f"toricflex.{info.name}")
        for info in pkgutil.iter_modules(toricflex.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    assert len(modules) > 1
    for module in modules:
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those in string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    trees = [tree] + [
        ast.parse(node.value, mode="eval")
        for root in annotations
        if root is not None
        for node in ast.walk(root)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def test_no_unused_imports():
    # __init__ imports names only to export them.
    paths = sorted(Path(toricflex.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert sorted(imported_names(tree) - used_names(tree)) == [], path.name


def test_cli_import_leaves_typing_unloaded():
    # A fresh interpreter, as a toricflex call starts.  -S keeps site out,
    # since on some versions site imports typing by itself.
    src = str(Path(toricflex.__file__).resolve().parent.parent)
    code = "import sys; import toricflex.cli; print('typing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"


def imported_modules(tree: ast.Module) -> set[str]:
    """The absolute module names the module imports."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return modules


def test_only_jsonfmt_imports_json():
    # Each JSON encoding, and the reader, is decided in one module.
    importers = []
    for path in sorted(Path(toricflex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "json" in {module.split(".")[0] for module in imported_modules(tree)}:
            importers.append(path.name)
    assert importers == ["jsonfmt.py"]


# Text written once for the whole package: by jsonfmt.json_object for the
# object-and-keys check, by cli._note for the stderr prefix, as
# fans.HYPOTHESIS_PREFIX for the cover hypotheses, and by
# intlinalg._fraction_free_step for the exactness of every elimination, and
# by cover._complement_from_list for every malformed complement list.
WRITTEN_ONCE = (
    "must be a JSON object",
    "is missing keys",
    "toricflex: ",
    "hypothesis failure: ",
    "fraction-free step lost exactness",
    "complement_faces entries must be [ray index list, codim]",
)


@pytest.mark.parametrize("literal", WRITTEN_ONCE)
def test_message_written_in_one_place(literal):
    paths = sorted(Path(toricflex.__file__).parent.glob("*.py"))
    counts = {path.name: path.read_text(encoding="utf-8").count(literal) for path in paths}
    assert sum(counts.values()) == 1, {name: n for name, n in counts.items() if n}
