"""Creation pipelines: management tools, phase retries, rollback, orchestration."""

import json
import os

import pytest

from agentos import registry
from agentos.backends import ScriptedBackend
from agentos.engine import Engine
from agentos.errors import (
    E_ARGS,
    E_IO,
    E_RUNNER_REFUSED,
    E_SCRIPT,
    E_UNKNOWN_TOOL,
    NotFoundError,
    PhaseExhaustedError,
    ScriptExhaustedError,
    TooFewAgentsError,
)
from agentos.creation import (
    ManagementToolSuite,
    create_agents_pipeline,
    create_workflow_pipeline,
    default_agent_editor,
    default_tool_editor,
    default_workflow_editor,
    diagnostics_to_feedback,
    extract_xml,
    make_orchestrator_agent,
)
from agentos.forms import Diagnostic, parse_workflow_form, workflow_form_to_xml
from agentos.kernel import AgentDefinition, Context, ToolCall, orchestrate, run_agent_loop
from agentos.registry import (
    RegistryStore, RegistryToolSuite, SubprocessScriptRunner, builtin_tool,
)
from agentos.workflow import run_workflow

from conftest import read_fixture


@pytest.fixture
def store(tmp_path):
    return RegistryStore(tmp_path / "registry")


@pytest.fixture
def suite(store):
    return ManagementToolSuite(store)


def engine_of(steps) -> Engine:
    # direct mode: a scripted text step stays final text even when it quotes
    # the transformed grammar, which the TEST line protocol relies on
    return Engine(mode="direct", backend=ScriptedBackend(steps))


# ---------------------------------------------------------------------------
# feedback helpers
# ---------------------------------------------------------------------------

def test_diagnostics_to_feedback():
    text = diagnostics_to_feedback([
        Diagnostic("A5", "keys differ", "/agents/agent[1]"),
        Diagnostic("A2", "undefined global", "/agents/agent[1]/instructions"),
    ])
    lines = text.splitlines()
    assert lines[0].startswith("The document was rejected.")
    assert lines[1] == "- A5 at /agents/agent[1]: keys differ"
    assert lines[2] == "- A2 at /agents/agent[1]/instructions: undefined global"


def test_extract_xml():
    doc = "<agents><agent/></agents>"
    assert extract_xml(f"Here you go:\n{doc}\nDone.", "agents") == doc
    assert extract_xml("no document here", "agents") is None
    assert extract_xml("<agents>never closed", "agents") is None
    spaced = '<workflow name="x"></workflow>'
    assert extract_xml(f"lead {spaced} trail", "workflow") == spaced


# ---------------------------------------------------------------------------
# management tool suite
# ---------------------------------------------------------------------------

def test_mgmt_listings_and_unknown(suite):
    assert suite.run(ToolCall("list_tools", {})).payload == "(none)"
    assert suite.run(ToolCall("list_agents", {})).payload == "(none)"
    assert suite.run(ToolCall("list_workflows", {})).payload == "(none)"
    unknown = suite.run(ToolCall("rm_everything", {}))
    assert unknown.error_kind == E_UNKNOWN_TOOL


def test_mgmt_argument_checks(suite):
    missing = suite.run(ToolCall("create_tool", {}))
    assert missing.error_kind == E_ARGS
    extra = suite.run(ToolCall("list_tools", {"verbose": "yes"}))
    assert extra.error_kind == E_ARGS


def test_mgmt_schema_of_an_unknown_tool(suite):
    with pytest.raises(NotFoundError, match="unknown tool: rm_everything"):
        suite.schema("rm_everything")


def test_a_schema_edited_through_one_suite_shows_in_no_other(store, tmp_path):
    edited = ManagementToolSuite(store).schema("create_tool")
    edited.name, edited.description = "renamed", "changed"
    for other in (ManagementToolSuite(store), ManagementToolSuite(RegistryStore(tmp_path / "b"))):
        schema = other.schema("create_tool")
        assert (schema.name, schema.description) != ("renamed", "changed")
        assert schema.name == "create_tool"
        assert schema.parameters == edited.parameters


def test_mgmt_create_tool_variants(store, suite):
    builtin = suite.run(ToolCall("create_tool", {
        "name": "shout", "builtin": "echo",
        "parameters": '[{"name": "text", "description": "t", "required": true}]'}))
    assert builtin.payload == "created tool shout v1"

    script = suite.run(ToolCall("create_tool", {
        "name": "scripted", "source": "print('hi')", "parameters": "a, b"}))
    assert script.status == "ok"
    assert [p.name for p in store.get_tool("scripted").parameters] == ["a", "b"]

    neither = suite.run(ToolCall("create_tool", {"name": "empty_tool"}))
    assert (neither.status, neither.error_kind) == ("error", E_ARGS)

    bad_params = suite.run(ToolCall("create_tool", {
        "name": "broken", "builtin": "echo", "parameters": '{"name": "x"}'}))
    assert bad_params.error_kind == E_ARGS

    # builtin wins when both bodies are given
    both = suite.run(ToolCall("create_tool", {
        "name": "mixed", "builtin": "echo", "source": "print('x')",
        "parameters": '["text"]'}))
    assert both.status == "ok"
    assert store.get_tool("mixed").body_kind == "builtin"


@pytest.mark.parametrize("entry", [
    {"name": "a", "required": "false"},
    {"name": "a", "required": 0},
    {"name": "a", "description": 5},
    {"name": ["a"]},
])
def test_mgmt_create_tool_reads_parameter_objects_as_the_registry_does(store, suite, entry):
    result = suite.run(ToolCall("create_tool", {
        "name": "strict", "builtin": "echo", "parameters": json.dumps([entry])}))
    assert (result.status, result.error_kind) == ("error", E_ARGS)
    assert result.payload.startswith(f"bad parameter entry {entry!r}: ")
    assert store.snapshot() == {}


def test_mgmt_create_tool_refuses_a_parameter_entry_of_another_kind(store, suite):
    result = suite.run(ToolCall("create_tool", {
        "name": "odd", "builtin": "echo", "parameters": "[1]"}))
    assert (result.status, result.error_kind) == ("error", E_ARGS)
    assert result.payload == "bad parameter entry: 1"
    assert store.snapshot() == {}


@pytest.mark.parametrize("parameters", ["a,a", '["a", {"name": "a", "required": false}]'])
def test_mgmt_create_tool_refuses_a_repeated_parameter(store, suite, parameters):
    result = suite.run(ToolCall("create_tool", {
        "name": "twice", "builtin": "echo", "parameters": parameters}))
    assert (result.status, result.error_kind) == ("error", "E_INVALID_DEF")
    assert result.payload == "parameter 'a' is named twice"
    assert store.snapshot() == {}


def test_mgmt_run_tool(store, suite):
    store.put_tool(builtin_tool("arithmetic_eval"))
    result = suite.run(ToolCall("run_tool", {
        "name": "arithmetic_eval", "arguments": '{"expression": "2+3"}'}))
    assert (result.status, result.payload) == ("ok", "5")
    # non-string values are re-encoded as JSON text
    store.put_tool(builtin_tool("echo"))
    echoed = suite.run(ToolCall("run_tool", {
        "name": "echo", "arguments": '{"text": [1, 2]}'}))
    assert echoed.payload == "[1, 2]"
    bad_json = suite.run(ToolCall("run_tool", {"name": "echo", "arguments": "{not json"}))
    assert bad_json.error_kind == E_ARGS
    not_object = suite.run(ToolCall("run_tool", {"name": "echo", "arguments": '["x"]'}))
    assert not_object.error_kind == E_ARGS


def test_mgmt_json_nested_too_deeply_is_e_args(store, suite):
    store.put_tool(builtin_tool("echo"))
    deep = "[" * 100_000
    calls = [ToolCall("run_tool", {"name": "echo", "arguments": deep}),
             ToolCall("create_tool", {"name": "deep", "builtin": "echo", "parameters": deep})]
    for call in calls:
        result = suite.run(call)
        assert (result.status, result.error_kind) == ("error", E_ARGS), result
    # as a model's calls, they are E_ARGS observations too, not E_TOOL_EXCEPTION
    editor = AgentDefinition("Editor", tool_names=["run_tool", "create_tool"])
    outcome = run_agent_loop(editor, "task", Context(), engine_of([*calls, "done"]), suite)
    assert outcome.kind == "completed"
    assert [t.observation.error_kind for t in outcome.context if t.observation] == [E_ARGS] * 2
    assert store.names("tools") == ["echo"]


def test_mgmt_agent_lifecycle(store, suite):
    created = suite.run(ToolCall("create_agent", {
        "name": "Scout Agent", "description": "looks around",
        "instructions": "scout", "tools": "echo, missing_tool",
        "transfer_targets": "Base Agent", "model": "m9"}))
    assert created.payload == "created agent Scout Agent v1"
    agent = store.get_agent("Scout Agent")
    assert agent.tool_names == ("echo", "missing_tool")
    assert agent.transfer_targets == ("Base Agent",)
    assert suite.run(ToolCall("delete_agent", {"name": "Scout Agent"})).status == "ok"
    gone = suite.run(ToolCall("delete_agent", {"name": "Scout Agent"}))
    assert (gone.status, gone.error_kind) == ("error", "E_NOT_FOUND")


def test_mgmt_create_agent_refuses_a_repeated_tool(store, suite):
    result = suite.run(ToolCall("create_agent", {"name": "Echo Agent", "tools": "echo, echo"}))
    assert (result.status, result.error_kind) == ("error", "E_INVALID_DEF")
    assert result.payload == "tool 'echo' is named twice"
    assert store.snapshot() == {}


def test_mgmt_create_agent_with_a_name_the_file_system_cannot_encode(store, suite):
    result = suite.run(ToolCall("create_agent", {"name": "A\ud800"}))
    assert (result.status, result.error_kind) == ("error", "E_INVALID_DEF")
    assert result.payload.startswith("unusable agent name")
    assert store.snapshot() == {}


def test_mgmt_workflow_lifecycle(store):
    engine = engine_of(["4", "4", "5", "majority 4"])
    suite = ManagementToolSuite(store, engine=engine)
    xml = read_fixture("math_voting_workflow.xml")

    bad = suite.run(ToolCall("create_workflow", {"xml": "<workflow><broken"}))
    assert (bad.status, bad.error_kind) == ("error", "E_XML")
    surrogate = suite.run(ToolCall("create_workflow",
                                   {"xml": "<workflow><name>w\ud800</name></workflow>"}))
    assert (surrogate.status, surrogate.error_kind) == ("error", "E_XML")

    created = suite.run(ToolCall("create_workflow", {"xml": xml}))
    assert created.payload == "registered workflow parallel_math_solver_workflow"

    duplicate = suite.run(ToolCall("create_workflow", {"xml": xml}))
    assert duplicate.error_kind == "E_INVALID_DEF"

    ran = suite.run(ToolCall("run_workflow", {
        "name": "parallel_math_solver_workflow", "input": "2+2?"}))
    assert (ran.status, ran.payload) == ("ok", "majority 4")

    assert suite.run(ToolCall("delete_workflow",
                              {"name": "parallel_math_solver_workflow"})).status == "ok"


def test_mgmt_run_workflow_needs_engine(store, suite):
    xml = read_fixture("math_voting_workflow.xml")
    suite.run(ToolCall("create_workflow", {"xml": xml}))
    refused = suite.run(ToolCall("run_workflow",
                                 {"name": "parallel_math_solver_workflow",
                                  "input": "x"}))
    assert (refused.status, refused.error_kind) == ("error", E_RUNNER_REFUSED)


def test_mgmt_create_workflow_invalid_form(store, suite):
    xml = read_fixture("wiki_article_workflow.xml")  # needs Web Surfer Agent
    rejected = suite.run(ToolCall("create_workflow", {"xml": xml}))
    assert (rejected.status, rejected.error_kind) == ("error", "E_INVALID_FORM")
    assert "V8" in rejected.payload


# ---------------------------------------------------------------------------
# agents pipeline
# ---------------------------------------------------------------------------

GREETER_XML = """<agents>
    <system_input>A request for a short greeting.</system_input>
    <system_output>
        <key>greeting</key>
        <description>The composed greeting.</description>
    </system_output>
    <agent>
        <name>Greeter Agent</name>
        <description>Writes a greeting.</description>
        <instructions>Compose one friendly greeting sentence.</instructions>
        <tools category="new">
            <tool>
                <name>greeting_tool</name>
                <description>Return the given text unchanged.</description>
            </tool>
        </tools>
        <agent_input>
            <key>greeting_request</key>
            <description>What to greet.</description>
        </agent_input>
        <agent_output>
            <key>greeting</key>
            <description>The composed greeting.</description>
        </agent_output>
    </agent>
</agents>"""

GREETER_XML_BAD = GREETER_XML.replace(
    "<key>greeting</key>\n            <description>The composed greeting.</description>\n"
    "        </agent_output>",
    "<key>wrong_greeting</key>\n            <description>Mismatch.</description>\n"
    "        </agent_output>")

CREATE_GREETING_TOOL = ToolCall("create_tool", {
    "name": "greeting_tool", "description": "Return the given text unchanged.",
    "builtin": "echo", "parameters": '["text"]'})

TOOL_TEST_REPLY = ("created\n"
                   "TEST: <function=greeting_tool>"
                   "<parameter=text>hello</parameter></function>")

CREATE_GREETER_AGENT = ToolCall("create_agent", {
    "name": "Greeter Agent", "description": "Writes a greeting.",
    "instructions": "Compose one friendly greeting sentence.",
    "tools": "greeting_tool"})


def test_agents_pipeline_valid_first(store):
    engine = engine_of([
        f"Here is the team:\n{GREETER_XML}",
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
        CREATE_GREETER_AGENT, "registered the agent",
    ])
    report = create_agents_pipeline("make a greeter", engine, store)
    assert [(p.phase, p.ok, p.attempts) for p in report.phases] == [
        ("profiling", True, 1), ("tools", True, 1), ("agents", True, 1)]
    assert report.created_tools == ["greeting_tool"]
    assert report.created_agents == ["Greeter Agent"]
    assert store.names("tools") == ["greeting_tool"]
    assert store.get_agent("Greeter Agent").tool_names == ("greeting_tool",)
    assert engine.backend.calls == 5


def test_agents_pipeline_applies_the_forms_globals_to_instructions(store):
    xml = GREETER_XML.replace("Compose one friendly greeting sentence.", "Greet {who} warmly.")
    xml = xml.replace("</agents>", "<global_variables><variable><key>who</key>"
                                   "<value>sailors</value></variable></global_variables></agents>")
    engine = engine_of([xml, CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
                        _copy_requested_agent(0), "registered the agent"])
    create_agents_pipeline("make a greeter", engine, store)
    assert store.get_agent("Greeter Agent").instructions == "Greet sailors warmly."


def test_agents_pipeline_lists_a_repeated_tool_once(store):
    tool = """<tool>
                <name>greeting_tool</name>
                <description>Return the given text unchanged.</description>
            </tool>"""
    tasks = []

    def editor(reply):
        def step(request):
            tasks.append(request.messages[1]["content"])
            return reply
        return step

    engine = engine_of([GREETER_XML.replace(tool, tool * 2), editor(CREATE_GREETING_TOOL),
                        TOOL_TEST_REPLY, editor(CREATE_GREETER_AGENT), "registered the agent"])
    report = create_agents_pipeline("make a greeter", engine, store)
    assert [(p.phase, p.ok) for p in report.phases] == [
        ("profiling", True), ("tools", True), ("agents", True)]
    assert tasks[0].splitlines()[1:] == [
        "- greeting_tool: Return the given text unchanged. (used by Greeter Agent)", "",
        "Finish with one TEST line per tool demonstrating a successful call."]
    assert report.created_tools == ["greeting_tool"]
    assert tasks[1].endswith("\n  tools: greeting_tool")
    assert store.get_agent("Greeter Agent").tool_names == ("greeting_tool",)


def test_agents_pipeline_feedback_then_valid(store):
    seen_feedback = []

    def second_profile(request):
        seen_feedback.append(request.messages[-1]["content"])
        return GREETER_XML

    engine = engine_of([
        GREETER_XML_BAD, second_profile,
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
        CREATE_GREETER_AGENT, "done",
    ])
    report = create_agents_pipeline("make a greeter", engine, store)
    assert report.phases[0].attempts == 2
    assert report.phases[0].ok
    assert "A5" in report.phases[0].feedback[0]
    # the retry prompt carries the requirement plus the verbatim diagnostics
    assert seen_feedback[0].startswith("make a greeter\n\n")
    assert "- A5 at" in seen_feedback[0]


def test_agents_pipeline_profiling_exhaustion(store):
    store.put_tool(builtin_tool("echo"))
    baseline = store.snapshot()
    engine = engine_of(["not xml", "still not xml", "nope"])
    with pytest.raises(PhaseExhaustedError) as err:
        create_agents_pipeline("make a greeter", engine, store)
    assert err.value.phase == "profiling"
    assert engine.backend.calls == 3
    assert store.snapshot() == baseline


def test_agents_pipeline_feeds_back_a_lone_surrogate_as_an_xml_error(store):
    engine = engine_of([
        "<agents><system_input>\ud800</system_input></agents>", GREETER_XML,
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
        CREATE_GREETER_AGENT, "done",
    ])
    report = create_agents_pipeline("make a greeter", engine, store)
    assert (report.phases[0].ok, report.phases[0].attempts) == (True, 2)
    assert report.phases[0].feedback[0].startswith("The XML was rejected (E_XML): ")


def test_workflow_pipeline_lone_surrogates_exhaust_profiling(store):
    baseline = store.snapshot()
    engine = engine_of(["<workflow><name>w\ud800</name></workflow>"] * 3)
    with pytest.raises(PhaseExhaustedError) as err:
        create_workflow_pipeline("vote on a sum", engine, store)
    assert err.value.phase == "profiling"
    assert store.snapshot() == baseline


def test_agents_pipeline_tools_rollback(store):
    store.put_tool(builtin_tool("echo"))
    baseline = store.snapshot()
    # the editor creates the tool but never demonstrates it, three times over
    attempt = [CREATE_GREETING_TOOL, "created, no demonstration"]
    engine = engine_of([GREETER_XML] + attempt * 3)
    with pytest.raises(PhaseExhaustedError) as err:
        create_agents_pipeline("make a greeter", engine, store)
    assert err.value.phase == "tools"
    assert store.snapshot() == baseline
    assert engine.backend.calls == 7


def test_agents_pipeline_bad_test_line(store):
    broken_demo = "TEST: <function=greeting_tool><parameter=text>unclosed"
    engine = engine_of([
        GREETER_XML,
        CREATE_GREETING_TOOL, broken_demo,                 # attempt 1: bad line
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,             # attempt 2: clean
        CREATE_GREETER_AGENT, "done",
    ])
    report = create_agents_pipeline("make a greeter", engine, store)
    tools_phase = report.phases[1]
    assert tools_phase.attempts == 2
    assert "unreadable TEST line" in tools_phase.feedback[0]


def test_agents_pipeline_failing_demo_call(store):
    # demonstration call runs but errors (missing required argument)
    bad_demo = "TEST: <function=greeting_tool></function>"
    engine = engine_of([
        GREETER_XML,
        CREATE_GREETING_TOOL, bad_demo,
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
        CREATE_GREETER_AGENT, "done",
    ])
    report = create_agents_pipeline("make a greeter", engine, store)
    assert report.phases[1].attempts == 2
    assert E_ARGS in report.phases[1].feedback[0]


def test_agents_pipeline_demo_call_with_an_unusable_path(store, tmp_path):
    # a NUL in a file path is an E_IO observation for the editor, not a crash
    create_reader = ToolCall("create_tool", {
        "name": "greeting_tool", "description": "Read a file.",
        "builtin": "read_text_file", "parameters": '["path"]'})
    nul_demo = "TEST: <function=greeting_tool><parameter=path>a\x00b</parameter></function>"
    engine = engine_of([
        GREETER_XML,
        create_reader, nul_demo,
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
        CREATE_GREETER_AGENT, "done",
    ])
    suite = ManagementToolSuite(store, engine=engine, workdir=tmp_path / "work")
    report = create_agents_pipeline("make a greeter", engine, store, suite=suite)
    assert report.phases[1].attempts == 2
    assert f"failed ({E_IO})" in report.phases[1].feedback[0]


def test_agents_pipeline_demo_call_of_a_script_with_undecodable_output(store, tmp_path):
    # the TEST line runs the script through the configured runner; output that
    # is not UTF-8 is E_SCRIPT feedback for the editor, not a crash
    create_garbler = ToolCall("create_tool", {
        "name": "greeting_tool", "description": "Return the given text unchanged.",
        "source": "import sys\nsys.stdout.buffer.write(bytes([255]))",
        "parameters": '["text"]'})
    engine = engine_of([
        GREETER_XML,
        create_garbler, TOOL_TEST_REPLY,
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
        CREATE_GREETER_AGENT, "done",
    ])
    suite = ManagementToolSuite(store, engine=engine, workdir=tmp_path / "work",
                                runner=SubprocessScriptRunner(tmp_path / "work"))
    report = create_agents_pipeline("make a greeter", engine, store, suite=suite)
    assert report.phases[1].attempts == 2
    assert f"failed ({E_SCRIPT})" in report.phases[1].feedback[0]
    assert store.get_tool("greeting_tool").body_kind == "builtin"


def test_agents_pipeline_optional_test_phase(store):
    engine = engine_of([
        GREETER_XML,
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
        CREATE_GREETER_AGENT, "done",
        "Hello there!",  # the created agent answers the probe task
    ])
    report = create_agents_pipeline("make a greeter", engine, store,
                                    test_task="Greet the reviewers.")
    assert [p.phase for p in report.phases] == ["profiling", "tools", "agents", "test"]
    assert all(p.ok for p in report.phases)


def test_agents_pipeline_agent_naming_an_unknown_tool_retries(store):
    # a misspelt tool fails the agents phase, which rolls back and retries,
    # instead of failing the test phase with NotFoundError
    misspelt = ToolCall("create_agent", {**CREATE_GREETER_AGENT.arguments,
                                         "tools": "greeting_tool, greting_tool"})
    engine = engine_of([
        GREETER_XML,
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
        misspelt, "done",
        CREATE_GREETER_AGENT, "done",
        "Hello there!",
    ])
    report = create_agents_pipeline("make a greeter", engine, store,
                                    test_task="Greet the reviewers.")
    agents_phase = report.phases[2]
    assert (agents_phase.phase, agents_phase.ok, agents_phase.attempts) == ("agents", True, 2)
    assert agents_phase.feedback == ["agent Greeter Agent names unknown tool greting_tool"]
    assert store.get_agent("Greeter Agent").tool_names == ("greeting_tool",)
    assert [(p.phase, p.ok) for p in report.phases][-1] == ("test", True)


# ---------------------------------------------------------------------------
# rollback by staging: only a passing attempt's writes reach the files
# ---------------------------------------------------------------------------

def test_an_attempt_that_raises_is_rolled_back(store):
    store.put_tool(builtin_tool("echo"))
    baseline = store.snapshot()
    # the script ends inside the tools phase, after the editor created a tool
    engine = engine_of([GREETER_XML, CREATE_GREETING_TOOL])
    with pytest.raises(ScriptExhaustedError):
        create_agents_pipeline("make a greeter", engine, store)
    assert store.snapshot() == baseline


def test_a_suite_on_a_second_store_object_rolls_back_byte_exactly(store):
    store.put_tool(builtin_tool("echo"))
    baseline = store.snapshot()
    suite = ManagementToolSuite(RegistryStore(store.root))
    attempt = [CREATE_GREETING_TOOL, "created, no demonstration"]
    with pytest.raises(PhaseExhaustedError):
        create_agents_pipeline("make a greeter", engine_of([GREETER_XML] + attempt * 3),
                               store, suite=suite)
    assert store.snapshot() == baseline
    assert RegistryStore(store.root).snapshot() == baseline


def test_a_file_another_store_writes_during_a_failed_attempt_survives(store):
    def bystander_then_fail(request):
        RegistryStore(store.root).put_agent(AgentDefinition(name="Bystander"))
        return "created, no demonstration"

    engine = engine_of([
        GREETER_XML,
        CREATE_GREETING_TOOL, bystander_then_fail,   # attempt 1: rolled back
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,       # attempt 2
        CREATE_GREETER_AGENT, "done",
    ])
    report = create_agents_pipeline("make a greeter", engine, store)
    assert report.phases[1].attempts == 2
    # the dropped attempt wrote nothing; the other writer's agent stays
    assert store.names("agents") == ["Bystander", "Greeter Agent"]
    assert store.get_agent("Bystander") == AgentDefinition(name="Bystander")


def _failing_once_pipeline_io(root, entries: int, monkeypatch) -> dict[str, int]:
    """Registry file operations of an agents pipeline whose tools phase fails
    once after one put, run against ``entries`` other tools."""
    store = RegistryStore(root)
    for k in range(entries):
        tool = builtin_tool("echo")
        tool.name = f"other_tool_{k:03d}"
        store.put_tool(tool)
    engine = engine_of([
        GREETER_XML,
        CREATE_GREETING_TOOL, "created, no demonstration",  # attempt 1: dropped
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,              # attempt 2
        CREATE_GREETER_AGENT, "done",
    ])
    counts = {"atomic_write": 0, "unlink": 0, "entry_read": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return call

    with monkeypatch.context() as patch:
        patch.setattr(registry, "atomic_write", counted("atomic_write", registry.atomic_write))
        patch.setattr(os, "unlink", counted("unlink", os.unlink))
        patch.setattr(RegistryStore, "_entry", counted("entry_read", RegistryStore._entry))
        report = create_agents_pipeline("make a greeter", engine, store)
    assert [p.attempts for p in report.phases] == [1, 2, 1]
    return counts


def test_phase_rollback_costs_the_same_at_100_and_400_entries(tmp_path, monkeypatch):
    small = _failing_once_pipeline_io(tmp_path / "small", 100, monkeypatch)
    large = _failing_once_pipeline_io(tmp_path / "large", 400, monkeypatch)
    assert small == large
    # the passing attempts' tool and agent; the failed attempt writes nothing
    assert (small["atomic_write"], small["unlink"]) == (2, 0)


def test_an_attempt_in_progress_changes_no_file(store):
    store.put_tool(builtin_tool("echo"))
    baseline = store.snapshot()
    other = RegistryStore(store.root)
    seen = []

    def look(reply):
        def step(request):
            seen.append(other.snapshot())
            return reply
        return step

    engine = engine_of([
        GREETER_XML,
        CREATE_GREETING_TOOL, look(TOOL_TEST_REPLY),  # the tool is staged, not written
        look(CREATE_GREETER_AGENT), "done",           # the tools phase has passed
    ])
    report = create_agents_pipeline("make a greeter", engine, store)
    assert [p.attempts for p in report.phases] == [1, 1, 1]
    assert seen[0] == baseline
    assert sorted(seen[1]) == ["tools/echo.def", "tools/greeting_tool.def"]
    assert other.snapshot() == store.snapshot()
    assert other.names("agents") == ["Greeter Agent"]


# ---------------------------------------------------------------------------
# workflow pipeline
# ---------------------------------------------------------------------------

def _math_xml() -> str:
    return read_fixture("math_voting_workflow.xml")


def _math_canonical() -> str:
    return workflow_form_to_xml(parse_workflow_form(_math_xml()))


def _register_call() -> ToolCall:
    return ToolCall("create_workflow", {"xml": _math_canonical()})


CREATE_SOLVER = ToolCall("create_agent", {
    "name": "Math Solver Agent",
    "description": "This agent solves mathematical problems using analytical and systematic approaches.",
    "instructions": "This agent solves mathematical problems using analytical and systematic approaches."})
CREATE_AGGREGATOR = ToolCall("create_agent", {
    "name": "Vote Aggregator Agent",
    "description": "This agent aggregates solutions from different solvers and determines the final answer through majority voting.",
    "instructions": "This agent aggregates solutions from different solvers and determines the final answer through majority voting."})


def test_workflow_pipeline_valid_first(store):
    engine = engine_of([
        _math_xml(),                                   # profiling
        CREATE_SOLVER, CREATE_AGGREGATOR, "created",   # agents phase
        _register_call(), "registered",                # register phase
        "x=4", "x=4", "x=5", "majority: x=4",          # test phase run
    ])
    report = create_workflow_pipeline("vote on math", engine, store,
                                      test_input="solve 2x=8")
    assert [p.phase for p in report.phases] == [
        "profiling", "agents", "register", "test"]
    assert all(p.ok and p.attempts == 1 for p in report.phases)
    assert report.workflow_name == "parallel_math_solver_workflow"
    assert report.created_agents == ["Math Solver Agent", "Vote Aggregator Agent"]
    assert store.names("workflows") == ["parallel_math_solver_workflow"]
    assert engine.backend.calls == 10


def test_workflow_pipeline_register_rollback(store):
    # each register attempt leaves a stray mutation that must be rolled back
    stray = ToolCall("create_agent", {"name": "Stray Agent"})
    attempt = [stray, "forgot to register anything"]
    engine = engine_of([_math_xml(), CREATE_SOLVER, CREATE_AGGREGATOR, "created"]
                       + attempt * 3)
    with pytest.raises(PhaseExhaustedError) as err:
        create_workflow_pipeline("vote on math", engine, store)
    assert err.value.phase == "register"
    assert store.names("workflows") == []
    assert "Stray Agent" not in store.names("agents")
    # the successful agents phase is kept
    assert store.names("agents") == ["Math Solver Agent", "Vote Aggregator Agent"]


def test_workflow_pipeline_failed_test_phase(store):
    bad_run = ["x=4", "x=4", "x=5", "SELECTED_OUTPUT: bogus_key\nnope",
               "SELECTED_OUTPUT: bogus_key\nstill nope"]
    good_run = ["x=4", "x=4", "x=5", "majority: x=4"]
    engine = engine_of([_math_xml(), CREATE_SOLVER, CREATE_AGGREGATOR, "created",
                        _register_call(), "registered"] + bad_run + good_run)
    report = create_workflow_pipeline("vote on math", engine, store,
                                      test_input="solve 2x=8")
    test_phase = report.phases[-1]
    assert test_phase.phase == "test"
    assert test_phase.attempts == 2
    assert "E_OUTPUT_UNDECLARED" in test_phase.feedback[0]


def test_workflow_pipeline_test_phase_with_an_undeclared_registered_agent(store):
    # the aggregating event names a registered agent that <agents> does not
    # declare: profiling and registration accept it, and so does the test run
    store.put_agent(AgentDefinition("Helper Agent", instructions="Vote."))
    aggregator = "<name>Vote Aggregator Agent</name>\n                <model>"
    assert aggregator in _math_xml()
    xml = _math_xml().replace(aggregator, "<name>Helper Agent</name>\n                <model>")
    register = ToolCall("create_workflow", {
        "xml": workflow_form_to_xml(parse_workflow_form(xml))})
    engine = engine_of([xml, CREATE_SOLVER, CREATE_AGGREGATOR, "created",
                        register, "registered", "x=4", "x=4", "x=5", "majority: x=4"])
    report = create_workflow_pipeline("vote on math", engine, store,
                                      test_input="solve 2x=8")
    assert [(p.phase, p.ok, p.attempts) for p in report.phases] == [
        ("profiling", True, 1), ("agents", True, 1), ("register", True, 1), ("test", True, 1)]
    assert engine.backend.calls == 10


def test_workflow_pipeline_over_registered_agents_runs_no_agents_phase(store):
    # every agent the form declares is "existing": nothing to build before registering
    store.put_agent(AgentDefinition("Math Solver Agent", instructions="Solve."))
    store.put_agent(AgentDefinition("Vote Aggregator Agent", instructions="Vote."))
    xml = _math_xml().replace('<agent category="new">', '<agent category="existing">')
    assert xml != _math_xml()
    register = ToolCall("create_workflow", {
        "xml": workflow_form_to_xml(parse_workflow_form(xml))})
    engine = engine_of([xml, register, "registered"])
    report = create_workflow_pipeline("vote on math", engine, store)
    assert [(p.phase, p.ok, p.attempts) for p in report.phases] == [
        ("profiling", True, 1), ("register", True, 1)]
    assert (report.created_tools, report.created_agents) == ([], [])
    assert store.names("workflows") == ["parallel_math_solver_workflow"]
    assert engine.backend.calls == 3


BOATS_XML = """<workflow><name>boats_flow</name>
    <system_input><key>request</key><description>d</description></system_input>
    <system_output><key>essay</key><description>d</description></system_output>
    <agents>
        <agent category="new"><name>Writer Agent</name><description>Write about {topic}.</description></agent>
        <agent category="new"><name>Quiet Agent</name></agent>
    </agents>
    <global_variables><variable><key>topic</key><value>boats</value></variable></global_variables>
    <events>
        <event><name>on_start</name>
            <inputs><input><key>request</key><description>d</description></input></inputs>
            <outputs><output><key>request</key><description>d</description>
                <action><type>RESULT</type></action></output></outputs></event>
        <event><name>draft</name>
            <outputs><output><key>notes</key><description>d</description>
                <action><type>RESULT</type></action></output></outputs>
            <listen><event>on_start</event></listen>
            <agent><name>Writer Agent</name><model>m1</model></agent></event>
        <event><name>polish</name>
            <outputs><output><key>essay</key><description>d</description>
                <action><type>RESULT</type></action></output></outputs>
            <listen><event>draft</event></listen>
            <agent><name>Quiet Agent</name><model>m2</model></agent></event>
    </events></workflow>"""


def _copy_requested_agent(k: int):
    """An editor step that creates the k-th agent of the agents phase's task
    exactly as the task lists it."""
    def step(request):
        task = next(m["content"] for m in request.messages
                    if m["content"].startswith("Create the following agents"))
        lines = task.split("\n- ")[1 + k].splitlines()
        fields = dict(line.strip().partition(":")[::2] for line in lines)
        return ToolCall("create_agent", {key: fields[key].strip()
                                         for key in ("name", "description", "instructions")})
    return step


def _system_prompts(run, replies):
    """The system prompt of each request ``run(engine)`` makes."""
    prompts = []

    def reply(text):
        return lambda request: prompts.append(request.messages[0]["content"]) or text
    run(engine_of([reply(text) for text in replies]))
    return prompts


def test_a_declared_agent_is_registered_as_a_run_builds_it(store):
    form = parse_workflow_form(BOATS_XML)
    engine = engine_of([BOATS_XML, _copy_requested_agent(0), _copy_requested_agent(1),
                        "created", ToolCall("create_workflow", {"xml": workflow_form_to_xml(form)}),
                        "registered"])
    create_workflow_pipeline("write about boats", engine, store)
    assert [(a.name, a.instructions) for a in map(store.get_agent, store.names("agents"))] == [
        ("Quiet Agent", "You are Quiet Agent. Follow the task exactly."),
        ("Writer Agent", "Write about boats.")]

    unregistered = _system_prompts(lambda e: run_workflow(form, "go", e), ["notes", "essay"])
    registered = _system_prompts(lambda e: RegistryToolSuite(store).run_workflow(
        store.get_workflow("boats_flow"), "go", e), ["notes", "essay"])
    assert unregistered == registered == [
        "Write about boats.", "You are Quiet Agent. Follow the task exactly."]


def _creation_file_calls(root, entries: int, monkeypatch) -> dict[str, dict[str, int]]:
    """Folder listings and stats of an agents pipeline and a workflow pipeline,
    each with one failed attempt, and of a registry workflow run, against
    ``entries`` other entries of each kind."""
    store = RegistryStore(root)
    other = parse_workflow_form(_math_xml())
    for k in range(entries):
        tool = builtin_tool("echo")
        tool.name = f"other_tool_{k:03d}"
        store.put_tool(tool)
        store.put_agent(AgentDefinition(name=f"Other Agent {k:03d}"))
        other.name = f"other_workflow_{k:03d}"
        store.put_workflow(other)
    stray = ToolCall("create_agent", {"name": "Stray Agent"})
    runs = {
        "agents pipeline": lambda: create_agents_pipeline("make a greeter", engine_of([
            GREETER_XML,
            CREATE_GREETING_TOOL, "created, no demonstration",  # attempt 1: dropped
            CREATE_GREETING_TOOL, TOOL_TEST_REPLY,              # attempt 2
            CREATE_GREETER_AGENT, "done"]), store),
        "workflow pipeline": lambda: create_workflow_pipeline("vote on math", engine_of([
            _math_xml(), CREATE_SOLVER, CREATE_AGGREGATOR, "created",
            stray, "forgot to register anything",  # attempt 1: rolled back
            _register_call(), "registered"]), store),
        "workflow run": lambda: RegistryToolSuite(store).run_workflow(
            store.get_workflow("parallel_math_solver_workflow"), "solve 2x=8",
            engine_of(["x=4", "x=4", "x=5", "majority: x=4"])),
    }
    counts = {}
    for what, run in runs.items():
        calls = counts[what] = {"listdir": 0, "scandir": 0, "stat": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                def call(*args, name=name, real=getattr(os, name), **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)
                patch.setattr(os, name, call)
            outcome = run()
        if what == "workflow run":
            assert outcome.status == "completed"
        else:
            assert sorted(p.attempts for p in outcome.phases) == [1, 1, 2]
    return counts


def test_creation_lists_no_folder_and_stats_the_same_at_100_and_400_entries(
        tmp_path, monkeypatch):
    small = _creation_file_calls(tmp_path / "small", 100, monkeypatch)
    large = _creation_file_calls(tmp_path / "large", 400, monkeypatch)
    assert {what: calls["listdir"] + calls["scandir"] for what, calls in small.items()} \
        == dict.fromkeys(small, 0)
    assert small == large


def test_mgmt_run_workflow_that_fails(store):
    # the aggregator never selects a declared output, twice
    engine = engine_of(["4", "4", "5", "SELECTED_OUTPUT: bogus_key\nnope",
                        "SELECTED_OUTPUT: bogus_key\nstill nope"])
    suite = ManagementToolSuite(store, engine=engine)
    suite.run(ToolCall("create_workflow", {"xml": _math_xml()}))
    ran = suite.run(ToolCall("run_workflow", {
        "name": "parallel_math_solver_workflow", "input": "2+2?"}))
    assert (ran.status, ran.error_kind) == ("error", "E_OUTPUT_UNDECLARED")
    assert ran.payload == ("workflow error: aggregate_solutions: "
                           "reply did not select a declared output")


# ---------------------------------------------------------------------------
# orchestrator assembly
# ---------------------------------------------------------------------------

def test_make_orchestrator_agent():
    workers = [
        AgentDefinition(name="Solver", description="solves"),
        AgentDefinition(name="Checker", description="checks"),
    ]
    orchestrator, adjusted = make_orchestrator_agent(workers, model="m1")
    assert orchestrator.transfer_targets == ("Solver", "Checker")
    assert "- Solver: solves" in orchestrator.instructions
    assert [w.transfer_targets for w in adjusted] == [("orchestrator",), ("orchestrator",)]
    # inputs stay untouched
    assert workers[0].transfer_targets == ()
    with pytest.raises(TooFewAgentsError):
        make_orchestrator_agent(workers[:1])


def test_orchestrator_round_trip_runs():
    workers = [AgentDefinition(name="Solver", description="solves"),
               AgentDefinition(name="Checker", description="checks")]
    orchestrator, adjusted = make_orchestrator_agent(workers)
    engine = engine_of([
        ToolCall("transfer_to_solver", {"message": "go"}),
        ToolCall("transfer_to_orchestrator", {"message": "42"}),
        "the answer is 42",
    ])

    class NoTools:
        def schema(self, name):
            raise AssertionError("no tools expected")

        def run(self, call):
            raise AssertionError("no tools expected")

    outcome = orchestrate(orchestrator, adjusted, "solve it", engine, NoTools())
    assert outcome.kind == "completed"
    assert outcome.text == "the answer is 42"


def test_editor_defaults_have_management_tools():
    for editor, needed in [
        (default_tool_editor(), {"create_tool", "run_tool"}),
        (default_agent_editor(), {"create_agent"}),
        (default_workflow_editor(), {"create_workflow", "run_workflow"}),
    ]:
        assert needed <= set(editor.tool_names)
        assert editor.instructions
