"""Kernel invariants: value types, the turn loop, transfers, orchestration."""

import json

import pytest

from agentos.backends import ScriptedBackend
from agentos.engine import Engine, ToolParam, ToolSchema
from agentos.errors import (
    E_TOOL_EXCEPTION,
    E_UNKNOWN_TOOL,
    InvalidDefinitionError,
    UnknownAgentError,
)
from agentos.kernel import (
    AgentDefinition,
    AgentRunOutcome,
    Context,
    LoopLimits,
    OrchestrationLimits,
    ToolCall,
    ToolResult,
    Turn,
    apply_transfer,
    check_arguments,
    orchestrate,
    run_agent_loop,
)


class EchoSuite:
    """Minimal tool suite: every registered tool echoes its arguments."""

    def __init__(self, names=("echo",)):
        self.names = list(names)
        self.ran = []

    def schema(self, name):
        return ToolSchema(name, f"{name} tool", [ToolParam("text", "payload")])

    def run(self, call):
        self.ran.append(call)
        return ToolResult.ok(json.dumps(call.arguments, sort_keys=True))


def direct_engine(steps):
    return Engine(mode="direct", backend=ScriptedBackend(steps), model="m")


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

def test_tool_call_validates_names():
    ToolCall("ok_name", {"arg_1": "v"})
    with pytest.raises(ValueError):
        ToolCall("bad name")
    with pytest.raises(ValueError):
        ToolCall("fine", {"bad key": "v"})


def test_tool_result_invariants():
    ok = ToolResult.ok("x")
    assert (ok.status, ok.payload, ok.error_kind) == ("ok", "x", None)
    failed = ToolResult.fail("E_ARGS", "msg")
    assert (failed.status, failed.payload, failed.error_kind) == ("error", "msg", "E_ARGS")
    # the status follows the error code; it cannot be given apart from it
    with pytest.raises(TypeError):
        ToolResult("ok")
    with pytest.raises(TypeError):
        ToolResult(status="ok", error_kind="E_ARGS")


def test_argument_failures_do_not_depend_on_argument_order():
    # a recorded call replays with its arguments in sorted order, so the
    # failure must read the same whichever order the model sent them in
    schema = ToolSchema("probe", "", [ToolParam("a"), ToolParam("b")])
    for arguments in ({"text": "", "path": ""}, {"path": "", "text": ""}):
        failure = check_arguments(schema, arguments)
        assert (failure.error_kind, failure.payload) == ("E_ARGS", "unexpected argument: path")


def test_turn_observation_without_call_must_be_error():
    Turn(author="agent:a", observation=ToolResult.fail("E_PARSE", "bad"))
    with pytest.raises(ValueError):
        Turn(author="agent:a", observation=ToolResult.ok("fine"))


def test_agent_definition_rules():
    agent = AgentDefinition(name="Math Solver", transfer_targets=["Checker Agent"])
    assert agent.transfer_tool_map() == {"transfer_to_checker_agent": "Checker Agent"}
    with pytest.raises(InvalidDefinitionError):
        AgentDefinition(name="   ")
    with pytest.raises(InvalidDefinitionError):
        AgentDefinition(name="Loop", transfer_targets=["Loop"])
    with pytest.raises(InvalidDefinitionError, match="'echo' is named twice"):
        AgentDefinition(name="Echoer", tool_names=["echo", "read_text_file", "echo"])


def test_agent_definition_rejects_colliding_transfer_tools():
    # two targets that snake_case to one tool name would silently merge
    with pytest.raises(InvalidDefinitionError, match="transfer_to_web_agent"):
        AgentDefinition(name="Router", transfer_targets=["Web Agent", "web_agent"])
    with pytest.raises(InvalidDefinitionError, match="transfer_to_web_agent"):
        AgentDefinition(name="Router", transfer_targets=["Web Agent", "Web Agent"])
    # a transfer tool would shadow a real tool of the same name
    with pytest.raises(InvalidDefinitionError, match="transfer_to_helper"):
        AgentDefinition(name="Router", tool_names=["transfer_to_helper"],
                        transfer_targets=["Helper"])
    AgentDefinition(name="Router", tool_names=["echo"],
                    transfer_targets=["Web Agent", "Web Agent 2"])
    # what a hand-edited registry file may hold instead of names
    for bad in ({"tool_names": [["echo"]]}, {"transfer_targets": [7]}):
        with pytest.raises(InvalidDefinitionError):
            AgentDefinition(name="Router", **bad)


def test_context_to_json_is_canonical():
    ctx = Context()
    ctx.append(Turn(author="user", content="hi"))
    ctx.append(Turn(author="agent:a", content="", tool_call=ToolCall("echo", {"text": "x"}),
                    observation=ToolResult.ok("x")))
    data = json.loads(ctx.to_json())
    assert data[0] == {"author": "user", "content": "hi"}
    assert data[1]["tool_call"] == {"tool_name": "echo", "arguments": {"text": "x"}}
    assert data[1]["observation"] == {"status": "ok", "payload": "x", "error_kind": None}
    # stable bytes: no whitespace, sorted keys
    assert ctx.to_json() == ctx.to_json()
    assert ": " not in ctx.to_json()


# ---------------------------------------------------------------------------
# run_agent_loop
# ---------------------------------------------------------------------------

def test_loop_tool_then_final():
    suite = EchoSuite()
    agent = AgentDefinition(name="Worker", instructions="do work", tool_names=["echo"])
    engine = direct_engine([ToolCall("echo", {"text": "ping"}), "all done"])
    outcome = run_agent_loop(agent, "task", Context(), engine, suite)
    assert outcome.kind == "completed"
    assert outcome.text == "all done"
    assert suite.ran == [ToolCall("echo", {"text": "ping"})]
    authors = [t.author for t in outcome.context]
    assert authors == ["user", "agent:Worker", "agent:Worker"]


def test_loop_unknown_tool_becomes_error_observation():
    suite = EchoSuite()
    agent = AgentDefinition(name="W", tool_names=["echo"])
    engine = direct_engine([ToolCall("mystery", {}), "ok"])
    outcome = run_agent_loop(agent, "t", Context(), engine, suite)
    assert outcome.kind == "completed"
    bad = outcome.context.turns[1]
    assert bad.observation.error_kind == E_UNKNOWN_TOOL
    assert suite.ran == []


def test_loop_turn_limit():
    suite = EchoSuite()
    agent = AgentDefinition(name="W", tool_names=["echo"])
    engine = direct_engine([ToolCall("echo", {"text": str(i)}) for i in range(5)])
    outcome = run_agent_loop(agent, "t", Context(), engine, suite,
                             LoopLimits(max_turns=3))
    assert outcome.kind == "turn_limit"
    assert len(suite.ran) == 3


def test_loop_parse_error_feeds_back_and_continues():
    # transformed mode: first reply is an unparseable fragment, second is final
    backend = ScriptedBackend(["<function=broken name>", "recovered"])
    engine = Engine(mode="transformed", backend=backend, model="m")
    agent = AgentDefinition(name="W", instructions="sys")
    outcome = run_agent_loop(agent, "t", Context(), engine, EchoSuite([]))
    assert outcome.kind == "completed"
    err_turn = outcome.context.turns[1]
    assert err_turn.tool_call is None
    assert err_turn.observation.error_kind == "E_PARSE"
    assert err_turn.content == "<function=broken name>"


def test_loop_parse_error_after_a_lone_surrogate():
    # a server's JSON "\udcff" escape yields such text; its offset counts the
    # surrogate as three bytes, as surrogatepass encodes it
    text = "\udcff <function=broken name>"
    engine = Engine(mode="transformed", backend=ScriptedBackend([text, "recovered"]))
    outcome = run_agent_loop(AgentDefinition(name="W"), "t", Context(), engine,
                             EchoSuite([]))
    assert outcome.kind == "completed"
    err_turn = outcome.context.turns[1]
    assert (err_turn.content, err_turn.observation.error_kind) == (text, "E_PARSE")
    assert err_turn.observation.payload == "parse error at byte 14: malformed function name"


def test_loop_tool_exception_becomes_error_observation():
    class CrashingSuite(EchoSuite):
        def run(self, call):
            super().run(call)
            raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

    suite = CrashingSuite()
    agent = AgentDefinition(name="W", tool_names=["echo"])
    engine = direct_engine([ToolCall("echo", {"text": "x"}), "recovered"])
    outcome = run_agent_loop(agent, "t", Context(), engine, suite)
    assert outcome.kind == "completed" and outcome.text == "recovered"
    crashed = outcome.context.turns[1]
    assert crashed.tool_call == ToolCall("echo", {"text": "x"})
    assert crashed.observation.error_kind == E_TOOL_EXCEPTION
    assert crashed.observation.payload.startswith("ValueError: Exceeds the limit")

    class MissingSuite(EchoSuite):
        def run(self, call):
            raise UnknownAgentError("unknown agent: ghost")

    engine = direct_engine([ToolCall("echo", {"text": "x"}), "recovered"])
    outcome = run_agent_loop(agent, "t", Context(), engine, MissingSuite())
    assert outcome.context.turns[1].observation == ToolResult.fail(
        "E_UNKNOWN_AGENT", "unknown agent: ghost")


def test_loop_backend_abort():
    engine = direct_engine([])  # immediately exhausted
    agent = AgentDefinition(name="W")

    from agentos.errors import ScriptExhaustedError
    with pytest.raises(ScriptExhaustedError):
        run_agent_loop(agent, "t", Context(), engine, EchoSuite([]))


def test_loop_transfer_outcome():
    agent = AgentDefinition(name="Router", transfer_targets=["Solver"])
    engine = direct_engine([ToolCall("transfer_to_solver", {"message": "take over"})])
    outcome = run_agent_loop(agent, "t", Context(), engine, EchoSuite([]))
    assert outcome.kind == "transferred"
    assert outcome.target == "Solver"
    assert outcome.payload == "take over"
    assert outcome.context.turns[-1].observation.payload == "handoff to Solver"


# ---------------------------------------------------------------------------
# transfers and orchestration
# ---------------------------------------------------------------------------

def test_apply_transfer_records_system_turn():
    ctx = Context()
    agents = {"B": AgentDefinition(name="B")}
    outcome = AgentRunOutcome("transferred", ctx, target="B", payload="note")
    assert apply_transfer(outcome, agents).name == "B"
    assert len(ctx) == 1
    assert ctx.turns[-1].author == "system"
    assert ctx.turns[-1].content == "handoff to B: note"

    with pytest.raises(UnknownAgentError):
        apply_transfer(AgentRunOutcome("transferred", ctx, target="ghost"), agents)
    with pytest.raises(ValueError):
        apply_transfer(AgentRunOutcome("completed", ctx), agents)
    assert len(ctx) == 1  # a refused transfer records nothing


def _pair():
    orchestrator = AgentDefinition(name="Boss", transfer_targets=["Helper"])
    helper = AgentDefinition(name="Helper", transfer_targets=["Boss"])
    return orchestrator, helper


def test_orchestrate_round_trip():
    orchestrator, helper = _pair()
    engine = direct_engine([
        ToolCall("transfer_to_helper", {"message": "solve it"}),
        ToolCall("transfer_to_boss", {"message": "42"}),
        "final: 42",
    ])
    outcome = orchestrate(orchestrator, [helper], "what is 6*7", engine, EchoSuite([]))
    assert outcome.kind == "completed"
    assert outcome.text == "final: 42"
    system_notes = [t.content for t in outcome.context if t.author == "system"]
    assert system_notes == ["handoff to Helper: solve it", "handoff to Boss: 42"]
    # the task enters the shared context exactly once, on the first hop
    user_turns = [t for t in outcome.context if t.author == "user"]
    assert len(user_turns) == 1


def test_orchestrate_handoff_limit():
    orchestrator, helper = _pair()
    steps = []
    for _ in range(10):
        steps.append(ToolCall("transfer_to_helper"))
        steps.append(ToolCall("transfer_to_boss"))
    engine = direct_engine(steps)
    outcome = orchestrate(orchestrator, [helper], "t", engine, EchoSuite([]),
                          OrchestrationLimits(max_turns=5, max_handoffs=4))
    assert outcome.kind == "turn_limit"
    assert "4" in outcome.reason


def test_orchestrate_validates_wiring():
    orchestrator, helper = _pair()
    stranger = AgentDefinition(name="Stranger", transfer_targets=["Boss"])
    with pytest.raises(InvalidDefinitionError):
        orchestrate(orchestrator, [stranger], "t", direct_engine([]), EchoSuite([]))
    one_way = AgentDefinition(name="Helper")  # no way back
    with pytest.raises(InvalidDefinitionError):
        orchestrate(orchestrator, [one_way], "t", direct_engine([]), EchoSuite([]))
