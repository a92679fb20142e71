"""Error taxonomy shared by every agentos module.

Each exception carries a stable machine-readable ``code``. Codes also appear
inside ToolResult observations and aborted-run reasons, so they are defined
once here as plain string constants.
"""

from __future__ import annotations

# Codes surfaced through observations / reasons rather than exceptions.
E_UNKNOWN_TOOL = "E_UNKNOWN_TOOL"
E_ARGS = "E_ARGS"
E_SCRIPT = "E_SCRIPT"
E_LOOP_LIMIT = "E_LOOP_LIMIT"
E_MISSING_OUTPUT = "E_MISSING_OUTPUT"
E_OUTPUT_UNDECLARED = "E_OUTPUT_UNDECLARED"
E_NO_OUTPUT = "E_NO_OUTPUT"
E_RUNNER_REFUSED = "E_RUNNER_REFUSED"
E_IO = "E_IO"
E_TOOL_EXCEPTION = "E_TOOL_EXCEPTION"


class AgentOsError(Exception):
    """Base class; ``code`` is stable across releases, messages are not."""

    code = "E_INTERNAL"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


class ParseError(AgentOsError):
    """Tool-call grammar violation. ``offset`` is a UTF-8 byte offset."""

    code = "E_PARSE"

    def __init__(self, offset: int, reason: str, text: str = ""):
        super().__init__(f"parse error at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason
        self.text = text


class XmlError(AgentOsError):
    code = "E_XML"


class SchemaError(AgentOsError):
    """Well-formed XML that does not fit the form schema; ``path`` locates it."""

    code = "E_SCHEMA"

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class ActionTypeError(SchemaError):
    code = "E_ACTION_TYPE"


class BackendError(AgentOsError):
    code = "E_BACKEND"


class ScriptExhaustedError(AgentOsError):
    code = "E_SCRIPT_EXHAUSTED"


class CassetteMissError(AgentOsError):
    code = "E_CASSETTE_MISS"


class UnknownAgentError(AgentOsError):
    code = "E_UNKNOWN_AGENT"


class UnboundVariableError(AgentOsError):
    code = "E_UNBOUND"


class NotFoundError(AgentOsError):
    code = "E_NOT_FOUND"


class InvalidDefinitionError(AgentOsError, ValueError):
    """A malformed definition or an unusable entry name (also a ValueError)."""

    code = "E_INVALID_DEF"


class InvalidFormError(AgentOsError):
    """Raised when an operation requires a form that validated cleanly."""

    code = "E_INVALID_FORM"

    def __init__(self, diagnostics):
        codes = ",".join(d.code for d in diagnostics) or "?"
        super().__init__(f"form failed validation: {codes}")
        self.diagnostics = list(diagnostics)


class EmptyInputError(AgentOsError):
    code = "E_EMPTY"


class PhaseExhaustedError(AgentOsError):
    code = "E_PHASE_EXHAUSTED"

    def __init__(self, phase: str, message: str = ""):
        super().__init__(message or f"phase {phase} exhausted its attempts")
        self.phase = phase


class TooFewAgentsError(AgentOsError):
    code = "E_TOO_FEW_AGENTS"


class NoPriorSearchError(AgentOsError):
    code = "E_NO_PRIOR_SEARCH"
