"""Self-creation pipelines: requirement text in, registered capabilities out.

Both pipelines are compositions of the same phases: profiling, tools,
agents, and an optional test (plus workflow registration); each phase gets
up to ``max_attempts`` tries. An attempt asks an editor agent (or, for
profiling, a plain completion) to do the work, then the pipeline checks the
result mechanically: documents must parse and validate, created entries must
actually be in the registry (and so must every tool a created agent names),
and every new tool must pass the editor's own demonstration call. An
attempt's registry writes are staged in the store the editor writes through
and reach its files only when the attempt passes (docs/formats.md), so a
failed attempt leaves nothing; an exhausted phase raises PhaseExhaustedError.
Validation diagnostics are fed back to the next attempt verbatim, which is
what makes the loop self-correcting.

Editor agents never touch the filesystem directly; all mutation goes through
the management tool suite defined here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from . import kernel
from .backends import string_arguments
from .engine import parse_transformed_call
from .errors import (
    E_ARGS,
    E_RUNNER_REFUSED,
    E_UNKNOWN_TOOL,
    AgentOsError,
    InvalidDefinitionError,
    NotFoundError,
    ParseError,
    PhaseExhaustedError,
    SchemaError,
    TooFewAgentsError,
    XmlError,
)
from .forms import (
    Diagnostic,
    globals_map,
    parse_agent_form,
    parse_workflow_form,
    substitute_globals,
    validate_agent_form,
    validate_workflow_form,
    workflow_form_to_xml,
)
from .kernel import (AgentDefinition, Context, ToolCall, ToolParam, ToolResult, ToolSchema,
                     check_arguments)
from .registry import RegistryStore, RegistryToolSuite, ToolDefinition, decode_param
from .workflow import declared_agent

TEST_LINE_PREFIX = "TEST:"


# ---------------------------------------------------------------------------
# feedback rendering
# ---------------------------------------------------------------------------

def diagnostics_to_feedback(diagnostics: list[Diagnostic]) -> str:
    lines = ["The document was rejected. Fix every issue and output the "
             "corrected XML document only:"]
    for d in diagnostics:
        lines.append(f"- {d.code} at {d.location}: {d.message}")
    return "\n".join(lines)


def extract_xml(text: str, root_tag: str) -> str | None:
    """Pull the first <root_tag>...</root_tag> document out of prose."""
    open_a = f"<{root_tag}>"
    open_b = f"<{root_tag} "
    start = text.find(open_a)
    if start < 0:
        start = text.find(open_b)
    if start < 0:
        return None
    close = f"</{root_tag}>"
    end = text.find(close, start)
    if end < 0:
        return None
    return text[start:end + len(close)]


# ---------------------------------------------------------------------------
# management tool suite
# ---------------------------------------------------------------------------

_MGMT_SCHEMAS: dict[str, ToolSchema] = {schema.name: schema for schema in [
    ToolSchema("list_tools", "List registered tool names, one per line.", []),
    ToolSchema("create_tool", "Register a tool.", [
        ToolParam("name", "Tool name (identifier)."),
        ToolParam("description", "What the tool does.", required=False),
        ToolParam("parameters",
                  'JSON array of parameter names or {"name","description","required"} '
                  "objects, or a comma-separated name list.", required=False),
        ToolParam("source",
                  "Python source; reads a JSON object of arguments from stdin and "
                  "prints the result.", required=False),
        ToolParam("builtin", "Builtin body to reuse instead of a source.",
                  required=False),
    ]),
    ToolSchema("run_tool", "Execute a registered tool.", [
        ToolParam("name", "Tool name."),
        ToolParam("arguments", "JSON object of string arguments.", required=False),
    ]),
    ToolSchema("delete_tool", "Remove a tool.", [ToolParam("name", "Tool name.")]),
    ToolSchema("list_agents", "List registered agent names, one per line.", []),
    ToolSchema("create_agent", "Register an agent.", [
        ToolParam("name", "Agent name."),
        ToolParam("description", "One-line summary.", required=False),
        ToolParam("instructions", "System prompt for the agent.", required=False),
        ToolParam("tools", "Comma-separated tool names.", required=False),
        ToolParam("transfer_targets", "Comma-separated agent names.", required=False),
        ToolParam("model", "Model identifier.", required=False),
    ]),
    ToolSchema("delete_agent", "Remove an agent.", [ToolParam("name", "Agent name.")]),
    ToolSchema("list_workflows", "List registered workflow names, one per line.", []),
    ToolSchema("create_workflow", "Register a workflow from its XML document.", [
        ToolParam("xml", "The <workflow> XML document."),
    ]),
    ToolSchema("run_workflow", "Execute a registered workflow.", [
        ToolParam("name", "Workflow name."),
        ToolParam("input", "Value for the workflow's system input."),
    ]),
    ToolSchema("delete_workflow", "Remove a workflow.", [ToolParam("name", "Workflow name.")]),
]}

# the list_* and delete_* tools, by the registry kind they act on
_ENTRY_KINDS = {"list_tools": "tools", "delete_tool": "tools",
                "list_agents": "agents", "delete_agent": "agents",
                "list_workflows": "workflows", "delete_workflow": "workflows"}


def _split_csv(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _parse_param_spec(raw: str) -> list[ToolParam]:
    if not raw.strip():
        return []
    try:
        data = json.loads(raw)
    except json.JSONDecodeError:
        data = _split_csv(raw)
    if not isinstance(data, list):
        raise ValueError("parameters must be a list")
    out: list[ToolParam] = []
    for item in data:
        if isinstance(item, str):
            out.append(ToolParam(item))
        elif isinstance(item, dict) and "name" in item:
            try:
                out.append(decode_param(item))  # the registry record's own checks
            except InvalidDefinitionError as err:
                raise ValueError(f"bad parameter entry {item!r}: {err}") from None
        else:
            raise ValueError(f"bad parameter entry: {item!r}")
    return out


class ManagementToolSuite:
    """Registry mutation tools for editor agents.

    run_workflow needs a completion engine; without one it refuses rather
    than failing half way through an execution.
    """

    def __init__(self, store: RegistryStore, engine=None, workdir=None, runner=None):
        self.store = store
        self.engine = engine
        self.exec_tools = RegistryToolSuite(store, runner=runner, workdir=workdir)

    def schema(self, name: str) -> ToolSchema:
        """A new top-level copy of the table's schema; its parameters are immutable and shared."""
        try:
            return replace(_MGMT_SCHEMAS[name])
        except KeyError:
            raise NotFoundError(f"unknown tool: {name}")

    def run(self, call: ToolCall) -> ToolResult:
        if call.tool_name not in _MGMT_SCHEMAS:
            return ToolResult.fail(E_UNKNOWN_TOOL, f"unknown tool: {call.tool_name}")
        failure = check_arguments(_MGMT_SCHEMAS[call.tool_name], call.arguments)
        if failure is not None:
            return failure
        args = dict(call.arguments)
        kind = _ENTRY_KINDS.get(call.tool_name)
        try:
            if kind is None:
                return getattr(self, f"_do_{call.tool_name}")(args)
            if call.tool_name.startswith("list_"):
                names = self.store.names(kind)
                return ToolResult.ok("\n".join(names) if names else "(none)")
            self.store.delete(kind, args["name"])
            return ToolResult.ok(f"deleted {kind[:-1]} {args['name']}")
        except AgentOsError as err:
            return ToolResult.fail(err.code, str(err))
        except (ValueError, RecursionError) as err:  # RecursionError: JSON nested too deeply
            return ToolResult.fail(E_ARGS, str(err))

    # -- handlers -----------------------------------------------------------

    def _do_create_tool(self, args) -> ToolResult:
        params = _parse_param_spec(args.get("parameters", ""))
        builtin = args.get("builtin", "").strip()
        source = args.get("source", "")
        if builtin:
            body = {"body_kind": "builtin", "builtin": builtin}
        elif source.strip():
            body = {"body_kind": "script", "source": source}
        else:
            return ToolResult.fail(E_ARGS, "provide either source or builtin")
        tool = ToolDefinition(name=args["name"], description=args.get("description", ""),
                              parameters=params, **body)
        version = self.store.put_tool(tool)
        return ToolResult.ok(f"created tool {tool.name} v{version}")

    def _do_run_tool(self, args) -> ToolResult:
        arguments = string_arguments(args.get("arguments", ""))
        return self.exec_tools.run(ToolCall(args["name"], arguments))

    def _do_create_agent(self, args) -> ToolResult:
        agent = AgentDefinition(
            name=args["name"],
            description=args.get("description", ""),
            instructions=args.get("instructions", ""),
            tool_names=_split_csv(args.get("tools", "")),
            transfer_targets=_split_csv(args.get("transfer_targets", "")),
            model=args.get("model", ""),
        )
        version = self.store.put_agent(agent)
        return ToolResult.ok(f"created agent {agent.name} v{version}")

    def _do_create_workflow(self, args) -> ToolResult:
        form = parse_workflow_form(args["xml"])
        self.store.put_workflow(form)
        return ToolResult.ok(f"registered workflow {form.name}")

    def _do_run_workflow(self, args) -> ToolResult:
        if self.engine is None:
            return ToolResult.fail(E_RUNNER_REFUSED,
                                   "no engine configured for workflow runs")
        result = self.exec_tools.run_workflow(self.store.get_workflow(args["name"]),
                                              args["input"], self.engine)
        if result.status == "completed":
            return ToolResult.ok(result.output or "")
        return ToolResult.fail(result.error or "E_ABORTED",
                               f"workflow {result.status}: {result.reason}")


# ---------------------------------------------------------------------------
# editor agents
# ---------------------------------------------------------------------------

TOOL_EDITOR_INSTRUCTIONS = """\
You maintain the tool registry. Create each requested tool with create_tool.
Prefer builtin bodies when one fits; otherwise write a python source that
reads a JSON object of string arguments from stdin and prints its result.
After creating everything, finish with a plain text reply containing one
demonstration line per created tool, formatted exactly as:
TEST: <function=TOOL_NAME><parameter=arg>value</parameter></function>
Pick argument values whose execution clearly succeeds."""

AGENT_EDITOR_INSTRUCTIONS = """\
You maintain the agent registry. Create each requested agent with
create_agent, copying the provided name, description, instructions, and tool
list exactly. When every agent is created, reply with a short plain text
summary."""

WORKFLOW_EDITOR_INSTRUCTIONS = """\
You maintain the workflow registry. Register the provided workflow document
with create_workflow, passing the XML through unchanged. If registration
fails, read the error and retry with a corrected document. Finish with a
short plain text summary."""

PROFILER_INSTRUCTIONS = """\
You design agent teams. Given a requirement, output one XML document with
root <agents> and nothing else:

<agents>
    <system_input>what the user provides, as prose</system_input>
    <system_output><key>identifier</key><description>...</description></system_output>
    <global_variables>  (optional)
        <variable><key>k</key><description>...</description><value>...</value></variable>
    </global_variables>
    <agent>
        <name>...</name>
        <description>...</description>
        <instructions>...</instructions>
        <tools category="existing"><tool><name>...</name><description>...</description></tool></tools>
        <tools category="new"><tool><name>...</name><description>...</description></tool></tools>
        <agent_input><key>identifier</key><description>...</description></agent_input>
        <agent_output><key>identifier</key><description>...</description></agent_output>
    </agent>
</agents>

Each input/output takes exactly one key/description pair. Instructions may
reference global variables as {key}. Tools under category="existing" must
already be registered; tools under category="new" will be built. For a
single-agent team the agent_output key must equal the system_output key."""

WORKFLOW_PROFILER_INSTRUCTIONS = """\
You design event-driven workflows. Given a requirement, output one XML
document with root <workflow> and nothing else:

<workflow>
    <name>single_token_name</name>
    <system_input><key>identifier</key><description>...</description></system_input>
    <system_output><key>identifier</key><description>...</description></system_output>
    <agents>
        <agent category="existing|new"><name>...</name><description>...</description></agent>
    </agents>
    <global_variables>  (optional; a variable named max_iterations caps GOTO loops)
        <variable><key>k</key><description>...</description><value>...</value></variable>
    </global_variables>
    <events>
        <event>
            <name>identifier</name>
            <inputs><input><key>...</key><description>...</description></input></inputs>
            <task>what to do; may reference {global_variables}</task>
            <outputs>
                <output>
                    <key>...</key>
                    <description>...</description>
                    <condition>required when an event has several outputs</condition>
                    <action><type>RESULT|ABORT|GOTO</type><value>target event for GOTO</value></action>
                </output>
            </outputs>
            <listen><event>source_event</event></listen>
            <agent><name>...</name><model>...</model></agent>
        </event>
    </events>
</workflow>

Rules: the first event is on_start; it has no task, no agent, no listen, and
simply republishes the system input key with a RESULT action. Every other
event listens to at least one event and names an agent. An event's input
keys must be published by its listen ancestors (or be the system input). A
GOTO target must exist and must not listen to the GOTO's source event. With
several outputs, each needs a condition and at most one may be a RESULT. The
system_output key must be published by some RESULT output. At most one
RESULT per event; the listen graph must be acyclic."""


def default_tool_editor(model: str = "") -> AgentDefinition:
    return AgentDefinition(
        name="tool_editor", description="Maintains the tool registry.",
        instructions=TOOL_EDITOR_INSTRUCTIONS,
        tool_names=["list_tools", "create_tool", "run_tool", "delete_tool"],
        model=model)


def default_agent_editor(model: str = "") -> AgentDefinition:
    return AgentDefinition(
        name="agent_editor", description="Maintains the agent registry.",
        instructions=AGENT_EDITOR_INSTRUCTIONS,
        tool_names=["list_agents", "create_agent", "delete_agent", "list_tools"],
        model=model)


def default_workflow_editor(model: str = "") -> AgentDefinition:
    return AgentDefinition(
        name="workflow_editor", description="Maintains the workflow registry.",
        instructions=WORKFLOW_EDITOR_INSTRUCTIONS,
        tool_names=["list_workflows", "create_workflow", "run_workflow",
                    "delete_workflow", "list_agents"],
        model=model)


# ---------------------------------------------------------------------------
# phase machinery
# ---------------------------------------------------------------------------

@dataclass
class PhaseRecord:
    phase: str
    attempts: int = 0
    ok: bool = False
    feedback: list[str] = field(default_factory=list)


@dataclass
class CreationReport:
    kind: str  # "agents" | "workflow"
    phases: list[PhaseRecord] = field(default_factory=list)
    created_tools: list[str] = field(default_factory=list)
    created_agents: list[str] = field(default_factory=list)
    workflow_name: str = ""


def _check_test_lines(final_text: str, expected: set[str],
                      exec_tools) -> tuple[bool, str | None]:
    """Verify the editor's demonstration calls: one passing TEST line per tool."""
    demonstrated: dict[str, ToolResult] = {}
    for line in final_text.splitlines():
        stripped = line.strip()
        if not stripped.startswith(TEST_LINE_PREFIX):
            continue
        payload = stripped[len(TEST_LINE_PREFIX):].strip()
        try:
            call = parse_transformed_call(payload)
        except ParseError as err:
            return False, f"unreadable TEST line: {err}"
        if call.tool_name in expected:
            demonstrated[call.tool_name] = exec_tools.run(call)
    for name in sorted(expected):
        result = demonstrated.get(name)
        if result is None:
            return False, f"no TEST line demonstrates tool {name}"
        if result.status != "ok":
            return False, (f"the TEST call for {name} failed "
                           f"({result.error_kind}): {result.payload}")
    return True, None


class _Phases:
    """Runs the phases of one pipeline against one registry and report."""

    def __init__(self, kind: str, engine, store: RegistryStore,
                 suite: ManagementToolSuite | None, max_attempts: int,
                 limits: kernel.LoopLimits | None, model: str):
        self.engine = engine
        self.suite = suite if suite is not None else ManagementToolSuite(store, engine=engine)
        self.store = self.suite.store  # the one store an attempt writes, reads and checks
        self.report = CreationReport(kind=kind)
        self.max_attempts = max_attempts
        self.limits = limits
        self.model = model

    def run(self, name: str, attempt_fn) -> None:
        """Attempt loop: an attempt's writes are staged and committed only if it passes."""
        record = PhaseRecord(name)
        self.report.phases.append(record)
        feedback: str | None = None
        for _ in range(self.max_attempts):
            record.attempts += 1
            with self.store.staged() as commit:
                ok, fb = attempt_fn(feedback)
                if ok:
                    commit()
                    record.ok = True
                    return
            feedback = fb or "the attempt did not pass verification"
            record.feedback.append(feedback)
        raise PhaseExhaustedError(name)

    def profile(self, requirement: str, instructions: str, root_tag: str,
                parse, validate):
        """Ask for a <root_tag> document until it parses and validates."""
        captured = {}

        def attempt(feedback):
            user = requirement if feedback is None else f"{requirement}\n\n{feedback}"
            text = self.engine.complete_text(
                [{"role": "system", "content": instructions},
                 {"role": "user", "content": user}], model=self.model)
            xml = extract_xml(text, root_tag)
            if xml is None:
                return False, f"No <{root_tag}> document found. Output only the XML document."
            try:
                form = parse(xml)
            except (XmlError, SchemaError) as err:
                return False, f"The XML was rejected ({err.code}): {err}"
            diagnostics = validate(form, self.store.view())
            if diagnostics:
                return False, diagnostics_to_feedback(diagnostics)
            captured["form"] = form
            return True, None

        self.run("profiling", attempt)
        return captured["form"]

    def edit(self, name: str, editor: AgentDefinition, task: str, check) -> None:
        """An editor agent runs ``task``; ``check(outcome)`` verifies its work."""
        def attempt(feedback):
            full_task = task if feedback is None else \
                f"{task}\n\nPrevious attempt failed: {feedback}"
            outcome = kernel.run_agent_loop(editor, full_task, Context(),
                                            self.engine, self.suite, self.limits)
            if outcome.kind != "completed":
                return False, f"editor run ended with {outcome.kind}: {outcome.reason}"
            return check(outcome)

        self.run(name, attempt)

    def tools(self, rows: list[tuple[str, str, str]]) -> None:
        """Build the (name, description, owner) tools, each demonstrated; a
        repeated name keeps its first row."""
        if not rows:
            return
        first: dict[str, tuple[str, str, str]] = {}
        for row in rows:
            first.setdefault(row[0], row)
        lines = ["Create the following tools in the registry:"]
        for name, description, owner in first.values():
            suffix = f" (used by {owner})" if owner else ""
            lines.append(f"- {name}: {description}{suffix}")
        lines.append("")
        lines.append("Finish with one TEST line per tool demonstrating a successful call.")
        expected = set(first)

        def check(outcome):
            for name in sorted(expected):
                if not self.store.has("tools", name):
                    return False, f"tool {name} was not created"
            return _check_test_lines(outcome.text, expected, self.suite.exec_tools)

        self.edit("tools", default_tool_editor(self.model), "\n".join(lines), check)
        self.report.created_tools = sorted(expected)

    def agents(self, agents: list[AgentDefinition]) -> None:
        """Register ``agents``, each naming registered tools only."""
        if not agents:
            return
        lines = ["Create the following agents in the registry:"]
        for agent in agents:
            lines += [f"- name: {agent.name}", f"  description: {agent.description}",
                      f"  instructions: {agent.instructions}"]
            if agent.tool_names:
                lines.append(f"  tools: {', '.join(agent.tool_names)}")

        def check(outcome):
            for agent in agents:
                if not self.store.has("agents", agent.name):
                    return False, f"agent {agent.name} was not created"
                for tool in self.store.get_agent(agent.name).tool_names:
                    if not self.store.has("tools", tool):
                        return False, f"agent {agent.name} names unknown tool {tool}"
            return True, None

        self.edit("agents", default_agent_editor(self.model), "\n".join(lines), check)
        self.report.created_agents = [agent.name for agent in agents]


# ---------------------------------------------------------------------------
# pipeline: agents from a requirement
# ---------------------------------------------------------------------------

def create_agents_pipeline(requirement: str, engine, store: RegistryStore, *,
                           suite: ManagementToolSuite | None = None,
                           max_attempts: int = 3,
                           test_task: str | None = None,
                           limits: kernel.LoopLimits | None = None,
                           model: str = "") -> CreationReport:
    """Requirement -> validated agent form -> tools -> registered agents.

    Raises PhaseExhaustedError when a phase cannot pass within max_attempts;
    the registry is left as that phase found it.
    """
    phases = _Phases("agents", engine, store, suite, max_attempts, limits, model)
    form = phases.profile(requirement, PROFILER_INSTRUCTIONS, "agents",
                          parse_agent_form, validate_agent_form)
    phases.tools([(t.name, t.description, a.name)
                  for a in form.agents for t in a.tools_new])
    variables = globals_map(form.global_variables)
    phases.agents([AgentDefinition(
        a.name, a.description, substitute_globals(a.instructions, variables),
        list(dict.fromkeys(t.name for t in a.tools_existing + a.tools_new)))
        for a in form.agents])

    if test_task is not None:
        def test_attempt(feedback):
            agent = phases.store.get_agent(form.agents[0].name)
            outcome = kernel.run_agent_loop(agent, test_task, Context(), engine,
                                            phases.suite.exec_tools, limits)
            if outcome.kind != "completed":
                return False, f"test run ended with {outcome.kind}: {outcome.reason}"
            return True, None

        phases.run("test", test_attempt)
    return phases.report


# ---------------------------------------------------------------------------
# pipeline: workflow from a requirement
# ---------------------------------------------------------------------------

def create_workflow_pipeline(requirement: str, engine, store: RegistryStore, *,
                             suite: ManagementToolSuite | None = None,
                             max_attempts: int = 3,
                             test_input: str | None = None,
                             limits: kernel.LoopLimits | None = None,
                             model: str = "") -> CreationReport:
    """Requirement -> validated workflow form -> agents -> registered workflow."""
    phases = _Phases("workflow", engine, store, suite, max_attempts, limits, model)
    form = phases.profile(requirement, WORKFLOW_PROFILER_INSTRUCTIONS, "workflow",
                          parse_workflow_form, validate_workflow_form)
    new_decls = [d for d in form.agents if d.category == "new"]
    phases.tools([(t.name, t.description, d.name) for d in new_decls for t in d.tools])
    phases.agents([declared_agent(form, d) for d in new_decls])

    def registered(outcome):
        if not phases.store.has("workflows", form.name):
            return False, f"workflow {form.name} was not registered"
        return True, None

    phases.edit("register", default_workflow_editor(model),
                "Register this workflow with create_workflow. "
                "Pass the XML exactly as given:\n" + workflow_form_to_xml(form),
                registered)
    phases.report.workflow_name = form.name

    if test_input is not None:
        def test_attempt(feedback):
            result = phases.suite.exec_tools.run_workflow(phases.store.get_workflow(form.name),
                                                          test_input, engine, limits=limits)
            if result.status != "completed":
                return False, (f"test run {result.status}"
                               f" ({result.error}): {result.reason}")
            return True, None

        phases.run("test", test_attempt)
    return phases.report


# ---------------------------------------------------------------------------
# orchestrator assembly
# ---------------------------------------------------------------------------

def make_orchestrator_agent(workers: list[AgentDefinition],
                            name: str = "orchestrator",
                            model: str = "") -> tuple[AgentDefinition, list[AgentDefinition]]:
    """Build a coordinator over >= 2 workers.

    Returns the orchestrator plus the workers, each able to transfer back to
    it: a worker whose targets lack the orchestrator is replaced by a copy
    that has it. Fewer than two workers raises TooFewAgentsError (a single
    agent needs no coordination layer).
    """
    if len(workers) < 2:
        raise TooFewAgentsError(
            f"need at least 2 agents to orchestrate, got {len(workers)}")
    lines = [f"- {w.name}: {w.description or '(no description)'}" for w in workers]
    instructions = (
        "You coordinate a team of specialist agents. Read the task, delegate "
        "each part to the best specialist with its transfer tool, and when "
        "control returns, either delegate again or reply with the final "
        "consolidated answer.\n\nSpecialists:\n" + "\n".join(lines))
    orchestrator = AgentDefinition(
        name=name, description="Coordinates the specialist team.",
        instructions=instructions,
        transfer_targets=[w.name for w in workers], model=model)
    return orchestrator, [w if name in w.transfer_targets else
                          replace(w, transfer_targets=(*w.transfer_targets, name))
                          for w in workers]
