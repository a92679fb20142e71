"""The package's public surface."""

import ast
import importlib
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


def test_each_public_name_is_its_modules_own_object_looked_up_on_use():
    for name in agentos.__all__:
        module = importlib.import_module(f"agentos.{agentos._MODULE_OF[name]}")
        assert getattr(agentos, name) is vars(module)[name]
        assert name in dir(agentos)
        assert name not in vars(agentos)


def test_a_binding_replaced_in_its_module_shows_through_the_package_until_put_back(
        monkeypatch):
    original = kernel.run_agent_loop
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "run_agent_loop", "replaced")
        assert agentos.run_agent_loop == "replaced"
    assert agentos.run_agent_loop is original
    assert "run_agent_loop" not in vars(agentos)
