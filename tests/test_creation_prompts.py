"""Pin every request the creation pipelines send, by its cassette digest.

Cassettes recorded against real models replay only while each request's
``request_digest`` stays the same, so the prompts, the retry feedback and
the editor tool schemas must not drift. Four scripted sessions cover a clean
first pass and a session with rejected attempts for each pipeline; the
expected digest lists live in ``data/creation_prompt_digests.json``.
"""

import json

import pytest

from agentos.backends import ScriptedBackend, request_digest
from agentos.creation import create_agents_pipeline, create_workflow_pipeline
from agentos.engine import Engine
from agentos.forms import parse_workflow_form, workflow_form_to_xml
from agentos.kernel import LoopLimits, ToolCall
from agentos.registry import RegistryStore

from conftest import DATA, read_fixture
from test_creation import (
    CREATE_AGGREGATOR,
    CREATE_GREETER_AGENT,
    CREATE_GREETING_TOOL,
    CREATE_SOLVER,
    GREETER_XML,
    GREETER_XML_BAD,
    TOOL_TEST_REPLY,
)

EXPECTED = json.loads((DATA / "creation_prompt_digests.json").read_text(encoding="utf-8"))


class DigestRecorder:
    """Scripted backend that records the digest of every request it serves."""

    def __init__(self, steps):
        self.inner = ScriptedBackend(steps)
        self.digests: list[str] = []

    def complete(self, request):
        self.digests.append(request_digest(request))
        return self.inner.complete(request)


def _run(pipeline, requirement, steps, tmp_path, **kwargs):
    recorder = DigestRecorder(steps)
    store = RegistryStore(tmp_path / "registry")
    report = pipeline(requirement, Engine(mode="direct", backend=recorder), store,
                      **kwargs)
    assert len(recorder.inner) == 0, "the session left scripted replies unused"
    return report, recorder.digests


LIST_AGENTS = ToolCall("list_agents", {})
GREET = ToolCall("greeting_tool", {"text": "hi"})


def _agents_clean(tmp_path):
    return _run(create_agents_pipeline, "make a greeter", [
        f"Here is the team:\n{GREETER_XML}",
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
        CREATE_GREETER_AGENT, "registered the agent",
        "Hello there!",
    ], tmp_path, test_task="Greet the reviewers.")


def _agents_rejected(tmp_path):
    return _run(create_agents_pipeline, "make a greeter", [
        # profiling: no document, malformed XML, A5 diagnostics, then valid
        "I cannot do that.",
        "<agents><agent></agents>",
        GREETER_XML_BAD,
        GREETER_XML,
        # tools: not created, unreadable TEST line, no TEST line, failing
        # demonstration, then clean
        "nothing to do",
        CREATE_GREETING_TOOL,
        "TEST: <function=greeting_tool><parameter=text>unclosed",
        CREATE_GREETING_TOOL, "created, no demonstration",
        CREATE_GREETING_TOOL, "TEST: <function=greeting_tool></function>",
        CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
        # agents: the editor runs out of turns, then forgets, then succeeds
        LIST_AGENTS, LIST_AGENTS, LIST_AGENTS,
        "forgot",
        CREATE_GREETER_AGENT, "done",
        # test: the created agent runs out of turns, then answers
        GREET, GREET, GREET,
        "Hello there!",
    ], tmp_path, max_attempts=5, test_task="Greet the reviewers.",
        limits=LoopLimits(max_turns=3))


def _tooled_math_xml() -> str:
    """The math voting workflow with one new tool on its aggregator."""
    return read_fixture("math_voting_workflow.xml").replace(
        "determines the final answer through majority voting.</description>\n"
        "        </agent>",
        "determines the final answer through majority voting.</description>\n"
        "            <tools category=\"new\"><tool><name>vote_counter</name>"
        "<description>Return the given text unchanged.</description></tool></tools>\n"
        "        </agent>", 1)


CREATE_VOTE_COUNTER = ToolCall("create_tool", {
    "name": "vote_counter", "description": "Return the given text unchanged.",
    "builtin": "echo", "parameters": '["text"]'})
VOTE_TEST_REPLY = "TEST: <function=vote_counter><parameter=text>x=4</parameter></function>"
CREATE_TOOLED_AGGREGATOR = ToolCall("create_agent", dict(
    CREATE_AGGREGATOR.arguments, tools="vote_counter"))


def _register_tooled():
    xml = workflow_form_to_xml(parse_workflow_form(_tooled_math_xml()))
    return ToolCall("create_workflow", {"xml": xml})


def _workflow_clean(tmp_path):
    return _run(create_workflow_pipeline, "vote on math", [
        _tooled_math_xml(),
        CREATE_VOTE_COUNTER, VOTE_TEST_REPLY,
        CREATE_SOLVER, CREATE_TOOLED_AGGREGATOR, "created",
        _register_tooled(), "registered",
        "x=4", "x=4", "x=5", "majority: x=4",
    ], tmp_path, test_input="solve 2x=8")


def _workflow_rejected(tmp_path):
    unpublished = _tooled_math_xml().replace(
        "<key>final_solution</key>", "<key>missing_solution</key>", 1)
    return _run(create_workflow_pipeline, "vote on math", [
        # profiling: no document, V7 diagnostics, then valid
        "Here is my plan in prose.",
        unpublished,
        _tooled_math_xml(),
        # tools: not created, then clean
        "nothing created",
        CREATE_VOTE_COUNTER, VOTE_TEST_REPLY,
        # agents: the editor runs out of turns, then succeeds
        LIST_AGENTS, LIST_AGENTS, LIST_AGENTS,
        CREATE_SOLVER, CREATE_TOOLED_AGGREGATOR, "created",
        # register: not registered, then registered
        "forgot to register",
        _register_tooled(), "registered",
        # test: the aggregator names an undeclared output twice, then a clean run
        "x=4", "x=4", "x=5", "SELECTED_OUTPUT: bogus_key\nnope",
        "SELECTED_OUTPUT: bogus_key\nstill nope",
        "x=4", "x=4", "x=5", "majority: x=4",
    ], tmp_path, test_input="solve 2x=8", limits=LoopLimits(max_turns=3))


SESSIONS = {
    "agents_clean": (_agents_clean, [
        ("profiling", 1), ("tools", 1), ("agents", 1), ("test", 1)]),
    "agents_rejected": (_agents_rejected, [
        ("profiling", 4), ("tools", 5), ("agents", 3), ("test", 2)]),
    "workflow_clean": (_workflow_clean, [
        ("profiling", 1), ("tools", 1), ("agents", 1), ("register", 1), ("test", 1)]),
    "workflow_rejected": (_workflow_rejected, [
        ("profiling", 3), ("tools", 2), ("agents", 2), ("register", 2), ("test", 2)]),
}


@pytest.mark.parametrize("session", sorted(SESSIONS))
def test_creation_request_digests_are_pinned(session, tmp_path):
    run, phases = SESSIONS[session]
    report, digests = run(tmp_path)
    assert [(p.phase, p.attempts) for p in report.phases] == phases
    assert all(p.ok for p in report.phases)
    expected = EXPECTED[session]
    for i, (got, want) in enumerate(zip(digests, expected)):
        assert got == want, f"{session}: request {i} changed"
    assert len(digests) == len(expected)
