"""The public surface of the package: what it exports, and what it no longer does."""

import importlib
import pkgutil

import toricflex

# Deleted from the library, or (kernel_basis) moved into the tests.
REMOVED = (
    "_span_frame",
    "adjugate",
    "facet_normals",
    "is_nondegenerate",
    "kernel_basis",
    "lru_cache",
    "orbit_codim",
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
