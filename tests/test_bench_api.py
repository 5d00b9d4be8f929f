"""The benchmark's use of the package, read from its source without running it.

A workload that names a function the package no longer has fails only when
the benchmark runs; this test reads bench/ and fails at once instead.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("nn", "deeponet", "scaling", "datagen", "bounds", "cli")


def _has(module: str, name: str) -> bool:
    """name is a submodule or an attribute of the package module."""
    try:
        importlib.import_module(f"{module}.{name}")
        return True
    except ModuleNotFoundError:
        return hasattr(importlib.import_module(module), name)


def _missing_names(path: Path) -> list[str]:
    """Each `module.attr` with module one of MODULES, and each name imported
    from donlab, that the package does not have."""
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("donlab"):
            pairs = [(node.module, alias.name) for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            pairs = [(f"donlab.{node.value.id}", node.attr)]
        else:
            continue
        missing += [f"{mod}.{name}" for mod, name in pairs if not _has(mod, name)]
    return missing


def test_workloads_name_only_what_the_package_has():
    assert _missing_names(BENCH / "workloads.py") == []


def test_missing_name_is_reported(tmp_path):
    path = tmp_path / "workload.py"
    path.write_text("from donlab import nn\nfrom donlab.datagen import solve_adr, gone\n"
                    "nn.forward_batch(p, x)\nnn.removed(p, x)\n")
    assert _missing_names(path) == ["donlab.datagen.gone", "donlab.nn.removed"]
