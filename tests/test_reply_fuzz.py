"""Model replies, end to end: nothing a model emits crashes the runtime.

Hypothesis drives ``run_agent_loop`` and ``orchestrate`` through three inputs:
scripted steps, arbitrary JSON bodies that ``HttpBackend`` reads over
loopback HTTP (each example queues its bodies on a route of its own of the
session's server, tests/conftest.py), and raw cassette bytes; it drives
both workflow fixtures, serially and in parallel, through replies chosen by
each request's event prompt. Only an ``AgentOsError`` may escape, every run
ends, a session recorded from HTTP replies replays to the same context, and
a parallel workflow run ends as its serial run does. Each crash these inputs found has its own named test
below.

``HYPOTHESIS_PROFILE=fuzz`` (tests/conftest.py) runs the properties longer.
"""

import base64
import functools
import json
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentos.backends import (
    CassetteBackend,
    CompletionRequest,
    CompletionResponse,
    HttpBackend,
    RetryPolicy,
    ScriptedBackend,
    request_digest,
)
from agentos.engine import DIRECT, TRANSFORMED, Engine
from agentos.errors import AgentOsError, BackendError
from agentos.forms import parse_workflow_form
from agentos.kernel import (
    AgentDefinition,
    Context,
    LoopLimits,
    OrchestrationLimits,
    ToolCall,
    orchestrate,
    run_agent_loop,
)
from agentos.registry import RegistryStore, RegistryToolSuite, builtin_tool
from agentos.workflow import SELECT_MARKER

from conftest import read_fixture, reply

ORCHESTRATOR = AgentDefinition(
    "Orchestrator", instructions="Route the task.", tool_names=["echo", "arithmetic_eval"],
    transfer_targets=["Reader", "Echoer"])
WORKERS = [
    AgentDefinition("Reader", instructions="Read files.",
                    tool_names=["read_text_file", "list_directory"],
                    transfer_targets=["Orchestrator"]),
    AgentDefinition("Echoer", tool_names=["echo"], transfer_targets=["Orchestrator"]),
]
TASK = "Add 2 and 3, then read notes.txt."
LOOP = LoopLimits(max_turns=4)
ORCHESTRATION = OrchestrationLimits(max_turns=3, max_handoffs=2)
OUTCOMES = ("completed", "transferred", "turn_limit", "aborted")


WORKFLOWS = [parse_workflow_form(read_fixture(name))
             for name in ("math_voting_workflow.xml", "wiki_article_workflow.xml")]
WORKFLOW_STATUSES = ("completed", "aborted", "error")


@pytest.fixture(scope="module")
def tools(tmp_path_factory):
    """The builtins that only read, so a replayed session sees what its
    recording saw, and the registered agent the wiki workflow expects."""
    root = tmp_path_factory.mktemp("reply_fuzz")
    store = RegistryStore(root / "registry")
    for name in ("echo", "arithmetic_eval", "read_text_file", "list_directory"):
        store.put_tool(builtin_tool(name))
    store.put_agent(AgentDefinition("Web Surfer Agent", instructions="Search the web.",
                                    tool_names=["read_text_file", "list_directory"]))
    (root / "work").mkdir()
    (root / "work" / "notes.txt").write_text("2 + 3 = 5\n", encoding="utf-8")
    return RegistryToolSuite(store, workdir=root / "work")


def run(entry: str, backend, mode: str, tools) -> tuple[str, str]:
    """Run one session to its end: (outcome kind or error code, context JSON).
    ``run_agent_loop`` fills a context of ours, so it reads the same however
    the run ended."""
    engine = Engine(mode=mode, backend=backend, retry=RetryPolicy(sleep=lambda s: None))
    context = Context()
    try:
        if entry == "loop":
            outcome = run_agent_loop(ORCHESTRATOR, TASK, context, engine, tools, LOOP)
            assert len(context) <= LOOP.max_turns + 1
        else:
            outcome = orchestrate(ORCHESTRATOR, WORKERS, TASK, engine, tools, ORCHESTRATION)
            context = outcome.context
    except AgentOsError as err:
        return err.code, context.to_json()
    assert outcome.kind in OUTCOMES
    return outcome.kind, context.to_json()


def run_flow(form, steps, mode: str, tools, parallel: bool) -> tuple:
    """Run one workflow to its end: (status, output, blackboard, trace), or
    the code of the error that escaped."""
    engine = Engine(mode=mode, backend=PromptKeyedBackend(steps))
    try:
        result = tools.run_workflow(form, "2+3?", engine, parallel=parallel, limits=LOOP)
    except AgentOsError as err:
        return (err.code,)
    assert result.status in WORKFLOW_STATUSES
    return result.status, result.output, result.blackboard, result.trace


class PromptKeyedBackend:
    """Answers a request with the step its event prompt (the first user
    turn) and its length select, so a request gets the same reply whichever
    thread of a parallel round sends it."""

    def __init__(self, steps):
        self.steps = steps

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        prompt = next(m["content"] for m in request.messages if m["role"] == "user")
        key = f"{len(request.messages)}:{prompt}".encode("utf-8", "surrogatepass")
        step = self.steps[zlib.crc32(key) % len(self.steps)]
        if isinstance(step, ToolCall):
            return CompletionResponse(tool_call=step)
        return CompletionResponse(text=step)


def http_backend(loopback, bodies) -> HttpBackend:
    """Posts to a route of the loopback server (tests/conftest.py) that
    answers each request with the next body, then with a rejection."""
    return HttpBackend(loopback.route([reply(200, body) for body in bodies]).url)


def req() -> CompletionRequest:
    return CompletionRequest(model="m", messages=[{"role": "user", "content": "q"}])


def chat(message) -> dict:
    return {"choices": [{"message": message}]}


def call_body(name, arguments) -> dict:
    return chat({"content": None,
                 "tool_calls": [{"function": {"name": name, "arguments": arguments}}]})


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

NAMES = ["echo", "arithmetic_eval", "read_text_file", "list_directory",
         "transfer_to_orchestrator", "transfer_to_reader", "transfer_to_echoer",
         "no_such_tool"]
KEYS = ["text", "expression", "path", "message", "extra"]
# lone surrogates included: a server's JSON "\udcff" escape yields one
ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=12)
# the grammar's own pieces, so that near-calls are common
FRAGMENTS = st.sampled_from(
    ["<function=", "<parameter=", ">", "</parameter>", "</function>", " ", "\n",
     "my-tool", "a b", "\udcff", "2+3", "notes.txt", *NAMES, *KEYS]) | ANY_TEXT
REPLY_TEXT = st.lists(FRAGMENTS, max_size=12).map("".join)
ARGUMENTS = st.dictionaries(st.sampled_from(KEYS), REPLY_TEXT, max_size=3)
STEPS = st.lists(REPLY_TEXT | st.builds(ToolCall, st.sampled_from(NAMES), ARGUMENTS),
                 max_size=8)
# a third of the replies end with a line selecting one of the fixtures'
# output keys, so that workflows often run to their end and take their GOTOs
OUTPUT_KEYS = sorted({o.key for form in WORKFLOWS for event in form.events for o in event.outputs})
MARKER_LINE = st.sampled_from(OUTPUT_KEYS).map(f"\n{SELECT_MARKER} {{}}\n".format)
WORKFLOW_STEPS = st.lists(REPLY_TEXT | st.tuples(REPLY_TEXT, MARKER_LINE).map("".join)
                          | st.builds(ToolCall, st.sampled_from(NAMES), ARGUMENTS),
                          min_size=1, max_size=8)
MODES = st.sampled_from([DIRECT, TRANSFORMED])
ENTRIES = st.sampled_from(["loop", "orchestrate"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | ANY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ANY_TEXT, inner, max_size=3),
    max_leaves=8)
BAD_NAMES = st.sampled_from(["my-tool", "", "9lives", "a b"])
ARGUMENT_TEXT = (ARGUMENTS.map(json.dumps) | ANY_TEXT
                 | st.sampled_from(["", "[1]", "{not json", '{"a b": "1"}', '{"text": 5}']))
FUNCTION = st.fixed_dictionaries({}, optional={
    "name": st.sampled_from(NAMES) | BAD_NAMES | JSON, "arguments": ARGUMENT_TEXT | JSON})
MESSAGE = st.fixed_dictionaries({}, optional={
    "content": REPLY_TEXT | JSON,
    "tool_calls": st.lists(st.fixed_dictionaries({"function": FUNCTION}) | JSON,
                           max_size=2) | JSON})
BODIES = st.lists(MESSAGE.map(chat) | JSON, max_size=6)
# A1 payloads: the reply shape, near misses of it, and anything else
PAYLOADS = st.fixed_dictionaries({}, optional={
    "text": REPLY_TEXT | JSON,
    "tool_call": st.fixed_dictionaries({}, optional={
        "name": st.sampled_from(NAMES) | BAD_NAMES | JSON,
        "arguments": st.dictionaries(st.sampled_from(KEYS) | BAD_NAMES,
                                     REPLY_TEXT | JSON, max_size=3) | JSON}) | JSON}) | JSON


@functools.lru_cache(maxsize=None)
def first_digest(mode: str, tools) -> str:
    """The digest of the orchestrator's first request in ``mode``."""
    seen = []
    backend = ScriptedBackend([lambda request: seen.append(request_digest(request)) or "x"])
    run_agent_loop(ORCHESTRATOR, TASK, Context(), Engine(mode=mode, backend=backend),
                   tools, LOOP)
    return seen[0]


def record_line(digest: str, payload: bytes) -> bytes:
    blob = base64.b64encode(payload)
    return b"A1 %s %d %s\n" % (digest.encode(), len(blob), blob)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(deadline=None)
@given(steps=STEPS, mode=MODES, entry=ENTRIES)
def test_scripted_steps_end_in_a_coded_outcome(tools, steps, mode, entry):
    run(entry, ScriptedBackend(steps), mode, tools)


@settings(deadline=None)
@given(bodies=BODIES, mode=MODES, entry=ENTRIES)
def test_http_bodies_end_in_a_coded_outcome(tools, loopback, bodies, mode, entry):
    run(entry, http_backend(loopback, bodies), mode, tools)


@settings(deadline=None)
@given(bodies=BODIES, mode=MODES)
def test_http_session_replays_identically(tools, loopback, bodies, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.cassette"
        recorder = CassetteBackend(path, "record", inner=http_backend(loopback, bodies))
        kind, context = run("loop", recorder, mode, tools)
        if not path.exists():
            path.write_bytes(b"")
        replayed = run("loop", CassetteBackend(path, "replay"), mode, tools)
    assert replayed[1] == context
    # a reply of the wrong shape is never recorded: replay stops at it
    assert replayed[0] == kind or (kind, replayed[0]) == ("aborted", "E_CASSETTE_MISS")


@settings(deadline=None)
@given(data=st.data(), mode=MODES, entry=ENTRIES)
def test_cassette_bytes_end_in_a_coded_outcome(tools, data, mode, entry):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.cassette"
        recorder = CassetteBackend(path, "record", inner=ScriptedBackend(data.draw(STEPS)))
        run(entry, recorder, mode, tools)
        raw = bytearray(path.read_bytes() if path.exists() else b"")
        for at, byte in data.draw(st.lists(st.tuples(st.integers(0), st.integers(0, 255)),
                                           max_size=3)):
            if raw:
                raw[at % len(raw)] = byte
        # records answering the first request come first in its queue
        payloads = data.draw(st.lists(PAYLOADS.map(json.dumps).map(str.encode)
                                      | st.binary(max_size=16), max_size=3))
        head = b"".join(record_line(first_digest(mode, tools), p) for p in payloads)
        junk = data.draw(st.just(b"") | st.binary(max_size=24))
        path.write_bytes(junk + head + bytes(raw))
        try:
            backend = CassetteBackend(path, "replay")
        except AgentOsError:
            return
        run(entry, backend, mode, tools)


@settings(deadline=None)
@given(steps=WORKFLOW_STEPS, mode=MODES)
def test_workflow_replies_end_in_a_coded_status(tools, steps, mode):
    for form in WORKFLOWS:
        serial = run_flow(form, steps, mode, tools, parallel=False)
        assert run_flow(form, steps, mode, tools, parallel=True) == serial


# ---------------------------------------------------------------------------
# the crashes, one test each
# ---------------------------------------------------------------------------

def test_direct_call_with_a_dashed_name_is_a_parse_observation(tools, loopback):
    backend = http_backend(loopback, [call_body("my-tool", "{}"), chat({"content": "done"})])
    kind, context = run("loop", backend, DIRECT, tools)
    assert kind == "completed"
    turn = json.loads(context)[1]
    assert turn["content"] == '{"text":null,"tool_call":{"arguments":{},"name":"my-tool"}}'
    assert turn["observation"] == {
        "status": "error", "error_kind": "E_PARSE",
        "payload": "parse error at byte 0: tool name violates identifier grammar: 'my-tool'"}


def test_direct_call_with_a_spaced_key_is_a_parse_observation(tools, loopback):
    backend = http_backend(loopback, [call_body("echo", '{"a b": "1"}'), chat({"content": "done"})])
    kind, context = run("loop", backend, DIRECT, tools)
    assert kind == "completed"
    observation = json.loads(context)[1]["observation"]
    assert observation["error_kind"] == "E_PARSE"
    assert "argument name violates identifier grammar: 'a b'" in observation["payload"]


NESTED = '{"a":' * 100_000 + "1" + "}" * 100_000  # deeper than json can recurse


@pytest.mark.parametrize("arguments", ["[1]", "{not json", 7, NESTED],
                         ids=["list", "not-json", "number", "nested"])
def test_http_arguments_that_are_not_a_json_object(loopback, arguments):
    backend = http_backend(loopback, [call_body("echo", arguments)])
    with pytest.raises(BackendError, match="malformed completion payload"):
        backend.complete(req())


def test_http_content_list_is_a_backend_error(loopback):
    backend = http_backend(loopback, [chat({"content": [{"type": "text", "text": "hi"}]})])
    with pytest.raises(BackendError, match="malformed reply"):
        backend.complete(req())


def cassette(tmp_path, payload: bytes) -> CassetteBackend:
    path = tmp_path / "one.cassette"
    path.write_bytes(record_line(request_digest(req()), payload))
    return CassetteBackend(path, "replay")


@pytest.mark.parametrize("payload", [b"{not json", NESTED.encode()], ids=["not-json", "nested"])
def test_cassette_payload_that_is_not_json(tmp_path, payload):
    with pytest.raises(BackendError, match="corrupt cassette record at line 1"):
        cassette(tmp_path, payload)


@pytest.mark.parametrize("payload", [
    b"[]",                                                       # a JSON list
    b'{"text":null,"tool_call":{"name":"echo"}}',                # no arguments
    b'{"text":5,"tool_call":null}',                              # text not a string
    b'{"text":null,"tool_call":{"arguments":{"a":5},"name":"echo"}}',
], ids=["list", "no-arguments", "number-text", "number-argument"])
def test_cassette_payload_of_the_wrong_shape(tmp_path, payload):
    with pytest.raises(BackendError, match="malformed reply"):
        cassette(tmp_path, payload).complete(req())


def test_cassette_number_argument_aborts_the_run(tmp_path, tools):
    # a number must not reach render_tool_call, which joins text when the
    # next request is built
    path = tmp_path / "run.cassette"
    payload = b'{"text":null,"tool_call":{"arguments":{"text":5},"name":"echo"}}'
    path.write_bytes(record_line(first_digest(DIRECT, tools), payload))
    kind, context = run("loop", CassetteBackend(path, "replay"), DIRECT, tools)
    assert kind == "aborted"
    assert len(json.loads(context)) == 1


def test_recorded_parse_error_replays_identically(tmp_path, tools, loopback):
    path = tmp_path / "session.cassette"
    bodies = [call_body("my-tool", '{"n": 2}'), chat({"content": "done"})]
    recorded = run("loop", CassetteBackend(path, "record", inner=http_backend(loopback, bodies)),
                   DIRECT, tools)
    replayed = run("loop", CassetteBackend(path, "replay"), DIRECT, tools)
    assert replayed == recorded
    assert recorded[0] == "completed"
    first = path.read_text(encoding="utf-8").splitlines()[0].split(" ")[3]
    assert base64.b64decode(first) == (
        b'{"text":null,"tool_call":{"arguments":{"n":"2"},"name":"my-tool"}}')
