"""agentos: a deterministic multi-agent runtime.

Agents run as turn loops over a shared context and hand control to each
other through transfer tools. Workflows wire agents into event DAGs with
conditional routing and bounded loops. Creation pipelines turn requirement
text into registered tools, agents, and workflows, checking every step
mechanically. Everything is testable offline through scripted and cassette
backends.
"""

from types import ModuleType as _ModuleType

from .backends import (
    CassetteBackend,
    CompletionRequest,
    CompletionResponse,
    HttpBackend,
    RetryPolicy,
    ScriptedBackend,
    request_digest,
)
from .engine import (
    DIRECT,
    TRANSFORMED,
    Engine,
    EngineAction,
    parse_transformed_call,
    render_tool_call,
    render_transformed_schema,
    scan_transformed_call,
)
from .errors import (
    AgentOsError,
    BackendError,
    CassetteMissError,
    InvalidDefinitionError,
    InvalidFormError,
    NoPriorSearchError,
    NotFoundError,
    ParseError,
    PhaseExhaustedError,
    SchemaError,
    ScriptExhaustedError,
    TooFewAgentsError,
    UnboundVariableError,
    UnknownAgentError,
    XmlError,
)
from .forms import (
    AgentForm,
    Diagnostic,
    EventSpec,
    RegistryView,
    WorkflowForm,
    agent_form_to_xml,
    parse_agent_form,
    parse_workflow_form,
    substitute_globals,
    validate_agent_form,
    validate_workflow_form,
    workflow_form_to_xml,
)
from .kernel import (
    AgentDefinition,
    AgentRunOutcome,
    Context,
    LoopLimits,
    OrchestrationLimits,
    ToolCall,
    ToolParam,
    ToolResult,
    ToolSchema,
    Turn,
    apply_transfer,
    orchestrate,
    run_agent_loop,
)
from .creation import (
    CreationReport,
    ManagementToolSuite,
    create_agents_pipeline,
    create_workflow_pipeline,
    diagnostics_to_feedback,
    make_orchestrator_agent,
)
from .ragstore import Chunk, HashingEmbedder, Hit, RagAnswer, RagStore, chunk_text
from .registry import (
    RegistryStore,
    RegistryToolSuite,
    SubprocessScriptRunner,
    ToolDefinition,
    builtin_tool,
)
from .viewport import Viewport, open_view
from .workflow import (
    WorkflowResult,
    compile_graph,
    run_workflow,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
