"""The package's public surface."""

import ast
import inspect
from types import ModuleType

import agentos
from agentos import engine, kernel


def test_all_exports_no_submodules():
    assert agentos.__all__
    assert [name for name in agentos.__all__
            if isinstance(getattr(agentos, name), ModuleType)] == []
    assert "ToolParam" in agentos.__all__ and "run_workflow" in agentos.__all__


def test_the_kernel_imports_nothing_above_it():
    """kernel is the bottom of the engine's layers: engine and backends import
    it, never the other way, not even inside a function."""
    tree = ast.parse(inspect.getsource(kernel))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
            imported.update(("." * node.level) + name for name in names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    relative = {name for name in imported if name.startswith(".")}
    assert relative == {".naming", ".errors"}
    assert not {name for name in imported if name.split(".")[-1] in ("engine", "backends")}
    assert engine.ToolSchema is kernel.ToolSchema is agentos.ToolSchema
    assert engine.ToolParam is kernel.ToolParam is agentos.ToolParam
