"""agentos: a deterministic multi-agent runtime.

Agents run as turn loops over a shared context and hand control to each
other through transfer tools. Workflows wire agents into event DAGs with
conditional routing and bounded loops. Creation pipelines turn requirement
text into registered tools, agents, and workflows, checking every step
mechanically. Everything is testable offline through scripted and cassette
backends.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module it comes from; a module loads on the first
# use of one of its names (PEP 562), so importing the package, or one command
# of the CLI, loads only what it uses
_EXPORTS = {
    "backends": ("CassetteBackend", "CompletionRequest", "CompletionResponse",
                 "HttpBackend", "RetryPolicy", "ScriptedBackend", "request_digest"),
    "engine": ("DIRECT", "TRANSFORMED", "Engine", "parse_transformed_call",
               "render_tool_call", "render_transformed_schema", "scan_transformed_call"),
    "errors": ("AgentOsError", "BackendError", "CassetteMissError", "InvalidDefinitionError",
               "InvalidFormError", "NoPriorSearchError", "NotFoundError", "ParseError",
               "PhaseExhaustedError", "SchemaError", "ScriptExhaustedError",
               "TooFewAgentsError", "UnboundVariableError", "UnknownAgentError", "XmlError"),
    "forms": ("AgentForm", "Diagnostic", "EventSpec", "RegistryView", "WorkflowForm",
              "agent_form_to_xml", "parse_agent_form", "parse_workflow_form",
              "substitute_globals", "validate_agent_form", "validate_workflow_form",
              "workflow_form_to_xml"),
    "kernel": ("AgentDefinition", "AgentRunOutcome", "Context", "LoopLimits",
               "OrchestrationLimits", "ToolCall", "ToolParam", "ToolResult", "ToolSchema",
               "Turn", "apply_transfer", "orchestrate", "run_agent_loop"),
    "creation": ("CreationReport", "ManagementToolSuite", "create_agents_pipeline",
                 "create_workflow_pipeline", "diagnostics_to_feedback",
                 "make_orchestrator_agent"),
    "registry": ("RegistryStore", "RegistryToolSuite", "SubprocessScriptRunner",
                 "ToolDefinition", "builtin_tool"),
    # numpy, which only the RAG store uses, is the slowest import of all
    "ragstore": ("Chunk", "HashingEmbedder", "Hit", "RagAnswer", "RagStore", "chunk_text"),
    "viewport": ("Viewport", "open_view"),
    "workflow": ("WorkflowResult", "compile_graph", "run_workflow"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # looked up on every use and never stored here, so a binding that is
    # replaced in its module and later put back is never left behind in the
    # package
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
