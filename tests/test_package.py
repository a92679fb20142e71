"""The package's public surface."""

from types import ModuleType

import agentos


def test_all_exports_no_submodules():
    assert agentos.__all__
    assert [name for name in agentos.__all__
            if isinstance(getattr(agentos, name), ModuleType)] == []
    assert "ToolParam" in agentos.__all__ and "run_workflow" in agentos.__all__
