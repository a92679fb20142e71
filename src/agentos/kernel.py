"""Agent execution kernel: the turn loop and handoff-based control transfer.

A run appends Turns to a shared, append-only Context. Control moves between
agents only through transfer tools (``transfer_to_<snake_case(target)>``);
the receiving agent sees the full context, nothing is summarized away. The
engine and backends build on this module, which imports only naming and errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from . import naming
from .errors import (
    E_ARGS,
    E_TOOL_EXCEPTION,
    E_UNKNOWN_TOOL,
    AgentOsError,
    BackendError,
    InvalidDefinitionError,
    ParseError,
    UnknownAgentError,
)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass
class ToolCall:
    """One structured action: a tool name plus raw text arguments."""

    tool_name: str
    arguments: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not naming.is_identifier(self.tool_name):
            raise ValueError(f"tool name violates identifier grammar: {self.tool_name!r}")
        for key in self.arguments:
            if not naming.is_identifier(key):
                raise ValueError(f"argument name violates identifier grammar: {key!r}")


@dataclass
class ToolResult:
    """Outcome of executing (or attempting) one tool call."""

    status: str  # "ok" | "error"
    payload: str = ""
    error_kind: str | None = None

    def __post_init__(self):
        if self.status not in ("ok", "error"):
            raise ValueError(f"bad status: {self.status!r}")
        # error_kind present exactly when the result is an error
        if (self.error_kind is not None) != (self.status == "error"):
            raise ValueError("error_kind must accompany error status and only it")

    @classmethod
    def ok(cls, payload: str = "") -> "ToolResult":
        return cls("ok", payload)

    @classmethod
    def fail(cls, kind: str, payload: str = "") -> "ToolResult":
        return cls("error", payload, kind)


@dataclass(frozen=True)
class ToolParam:
    name: str
    description: str = ""
    required: bool = True


@dataclass
class ToolSchema:
    """A tool as an engine renders it. ``parameters`` is a tuple of frozen
    params, so schemas that share it share nothing a caller can change."""

    name: str
    description: str = ""
    parameters: tuple[ToolParam, ...] = ()

    def __post_init__(self):
        self.parameters = tuple(self.parameters)


def check_arguments(schema: ToolSchema, arguments) -> ToolResult | None:
    """An E_ARGS failure when ``arguments`` do not fit ``schema``, else None.
    Keys are checked in sorted order, the order a replayed call has."""
    declared = {p.name for p in schema.parameters}
    for key in sorted(arguments):
        if key not in declared:
            return ToolResult.fail(E_ARGS, f"unexpected argument: {key}")
    for p in schema.parameters:
        if p.required and p.name not in arguments:
            return ToolResult.fail(E_ARGS, f"missing required argument: {p.name}")
    return None


@dataclass
class Turn:
    """One step of history.

    author is "user", "system", "agent:<name>" or "tool:<name>". An
    observation without a tool_call is only legal for error feedback
    (e.g. a malformed call the engine could not parse).
    """

    author: str
    content: str = ""
    tool_call: ToolCall | None = None
    observation: ToolResult | None = None

    def __post_init__(self):
        if self.observation is not None and self.tool_call is None:
            if self.observation.status != "error":
                raise ValueError("observation without tool_call must be an error")

    def to_dict(self) -> dict:
        out: dict = {"author": self.author, "content": self.content}
        if self.tool_call is not None:
            out["tool_call"] = {
                "tool_name": self.tool_call.tool_name,
                "arguments": dict(self.tool_call.arguments),
            }
        if self.observation is not None:
            out["observation"] = {
                "status": self.observation.status,
                "payload": self.observation.payload,
                "error_kind": self.observation.error_kind,
            }
        return out


@dataclass
class Context:
    """Append-only ordered history shared across handoffs.

    ``memo``, a ``backends.MessageMemo`` once an engine step ran, keeps
    each turn's rendered messages and their encoded bytes, so each step
    renders and encodes only the turns appended since the last one, whichever
    agent sends it. It relies on ``turns`` only ever growing at the end, and
    on one thread at a time stepping the Context.
    """

    turns: list[Turn] = field(default_factory=list)
    memo: object = field(default=None, init=False, repr=False, compare=False)

    def append(self, turn: Turn) -> None:
        self.turns.append(turn)

    def __len__(self) -> int:
        return len(self.turns)

    def __iter__(self):
        return iter(self.turns)

    def to_json(self) -> str:
        return json.dumps([t.to_dict() for t in self.turns],
                          sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class AgentDefinition:
    """A runnable agent: prompt, tools, and allowed handoff targets. Immutable,
    so readers can share one; list fields given to it are kept as tuples."""

    name: str
    description: str = ""
    instructions: str = ""
    tool_names: tuple[str, ...] = ()
    transfer_targets: tuple[str, ...] = ()
    model: str = ""

    def __post_init__(self):
        for key in ("tool_names", "transfer_targets"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        if not self.name.strip():
            raise InvalidDefinitionError("agent name must be nonempty")
        if self.name in self.transfer_targets:
            raise InvalidDefinitionError("agent cannot transfer to itself")
        if not all(isinstance(n, str) for n in (*self.tool_names, *self.transfer_targets)):
            raise InvalidDefinitionError("tool names and transfer targets must be strings")
        taken: set[str] = set()
        for tool_name in self.tool_names:
            if tool_name in taken:
                raise InvalidDefinitionError(f"tool {tool_name!r} is named twice")
            taken.add(tool_name)
        for target in self.transfer_targets:
            tool_name = _transfer_tool_name(target)
            if tool_name in taken:
                raise InvalidDefinitionError(
                    f"transfer tool {tool_name} for {target!r} collides with "
                    "another tool or transfer target")
            taken.add(tool_name)

    def transfer_tool_map(self) -> dict[str, str]:
        """transfer tool name -> target agent name."""
        return {_transfer_tool_name(t): t for t in self.transfer_targets}


def _transfer_tool_name(target: str) -> str:
    return f"transfer_to_{naming.snake_case(target)}"


@dataclass
class AgentRunOutcome:
    """Terminal state of one run_agent_loop invocation plus the context."""

    kind: str  # "completed" | "transferred" | "turn_limit" | "aborted"
    context: Context
    text: str = ""
    target: str = ""
    payload: str = ""
    reason: str = ""


@dataclass
class LoopLimits:
    max_turns: int = 10


@dataclass
class OrchestrationLimits(LoopLimits):
    max_handoffs: int = 20


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _transfer_schemas(agent: AgentDefinition) -> list[ToolSchema]:
    out = []
    for tool_name, target in agent.transfer_tool_map().items():
        out.append(ToolSchema(
            name=tool_name,
            description=f"Hand the conversation off to {target}.",
            parameters=[ToolParam("message", "Optional note for the receiving agent.",
                                  required=False)],
        ))
    return out


def run_agent_loop(agent: AgentDefinition, task: str, context: Context,
                   engine, tools, limits: LoopLimits | None = None) -> AgentRunOutcome:
    """Drive one agent until final text, transfer, abort, or the turn bound.

    Exactly one Turn is appended per engine step. Unknown tools, unparseable
    calls and tools that raise become error observations the model sees next
    step; they still count against max_turns.
    """
    limits = limits or LoopLimits()
    author = f"agent:{agent.name}"
    transfer_map = agent.transfer_tool_map()

    schemas = [tools.schema(name) for name in agent.tool_names]
    schemas.extend(_transfer_schemas(agent))

    if task:
        context.append(Turn(author="user", content=task))

    for _ in range(limits.max_turns):
        try:
            action = engine.next_action(system=agent.instructions, model=agent.model,
                                        context=context, tools=schemas)
        except ParseError as err:
            context.append(Turn(
                author=author,
                content=err.text,
                observation=ToolResult.fail(err.code, err.message),
            ))
            continue
        except BackendError as err:
            return AgentRunOutcome("aborted", context, reason=str(err))

        if action.kind == "final":
            context.append(Turn(author=author, content=action.text))
            return AgentRunOutcome("completed", context, text=action.text)

        call = action.tool_call
        if call.tool_name in transfer_map:
            target = transfer_map[call.tool_name]
            context.append(Turn(
                author=author, tool_call=call,
                observation=ToolResult.ok(f"handoff to {target}"),
            ))
            return AgentRunOutcome("transferred", context, target=target,
                                   payload=call.arguments.get("message", ""))

        if call.tool_name not in agent.tool_names:
            result = ToolResult.fail(E_UNKNOWN_TOOL, f"unknown tool: {call.tool_name}")
        else:
            try:
                result = tools.run(call)
            except AgentOsError as err:
                result = ToolResult.fail(err.code, str(err))
            except Exception as err:  # a failing tool is the model's problem, not the run's
                result = ToolResult.fail(E_TOOL_EXCEPTION, f"{type(err).__name__}: {err}")
        context.append(Turn(author=author, tool_call=call, observation=result))

    return AgentRunOutcome("turn_limit", context,
                           reason=f"no terminal action within {limits.max_turns} turns")


def apply_transfer(outcome: AgentRunOutcome, agents: Mapping[str, AgentDefinition],
                   context: Context) -> tuple[AgentDefinition, Context]:
    """Resolve a transferred outcome to the next agent, recording a system Turn."""
    if outcome.kind != "transferred":
        raise ValueError(f"apply_transfer on non-transfer outcome: {outcome.kind}")
    target = agents.get(outcome.target)
    if target is None:
        raise UnknownAgentError(f"unknown agent: {outcome.target}")
    note = f"handoff to {outcome.target}"
    if outcome.payload:
        note += f": {outcome.payload}"
    context.append(Turn(author="system", content=note))
    return target, context


def orchestrate(orchestrator: AgentDefinition, workers: list[AgentDefinition],
                task: str, engine, tools,
                limits: OrchestrationLimits | None = None) -> AgentRunOutcome:
    """Run the orchestrator-workers pattern over one shared context.

    Handoffs are serialized; after max_handoffs transfers the run ends with
    the turn_limit terminal.
    """
    limits = limits or OrchestrationLimits()
    for w in workers:
        if w.name not in orchestrator.transfer_targets:
            raise InvalidDefinitionError(f"{w.name} is not a transfer target of the orchestrator")
        if orchestrator.name not in w.transfer_targets:
            raise InvalidDefinitionError(f"{w.name} cannot transfer back to the orchestrator")

    agents = {orchestrator.name: orchestrator}
    agents.update({w.name: w for w in workers})

    context = Context()
    current = orchestrator
    pending_task = task
    handoffs = 0

    while True:
        outcome = run_agent_loop(current, pending_task, context, engine, tools, limits)
        pending_task = ""
        if outcome.kind != "transferred":
            return outcome
        handoffs += 1
        current, context = apply_transfer(outcome, agents, context)
        if handoffs >= limits.max_handoffs:
            return AgentRunOutcome("turn_limit", context,
                                   reason=f"handoff limit reached ({limits.max_handoffs})")
