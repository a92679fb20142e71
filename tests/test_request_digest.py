"""The A1 request digest and message building are incremental per Context.

Every digest must equal sha256 of the request body serialized whole, however
the messages were built and whatever happened to the list afterwards.
"""

import copy
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentos import backends, engine
from agentos.backends import CassetteBackend, CompletionRequest, ScriptedBackend, request_digest
from agentos.engine import DIRECT, TRANSFORMED, Engine, ToolParam, ToolSchema, build_messages
from agentos.kernel import (
    AgentDefinition,
    Context,
    OrchestrationLimits,
    ToolCall,
    ToolResult,
    Turn,
    orchestrate,
)
from agentos.registry import RegistryStore, RegistryToolSuite, builtin_tool

TOOLS = [ToolSchema("echo", "Return text; «verbatim».", [ToolParam("text", "Text.")]),
         ToolSchema("lookup", "", [ToolParam("key", "Key, \"quoted\".", required=False)])]
SYSTEMS = ["", "You are the router.", "Du bist der Prüfer ✓."]


def oracle(request: CompletionRequest) -> str:
    """sha256 of the whole body, serialized in one call (docs/formats.md, A1)."""
    tools = None
    if request.tools:
        tools = [{"name": s.name, "description": s.description,
                  "parameters": [{"name": p.name, "description": p.description,
                                  "required": p.required} for p in s.parameters]}
                 for s in request.tools]
    body = {"model": request.model, "messages": request.messages, "tools": tools,
            "mode": request.mode}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def request_for(context: Context, agent: int, mode: str, with_tools: bool,
                model: str = "m") -> CompletionRequest:
    tools = TOOLS if with_tools else []
    messages = build_messages(SYSTEMS[agent], context, mode, tools)
    return CompletionRequest(model=model, messages=messages,
                             tools=list(tools) if (mode == DIRECT and tools) else None,
                             mode=mode)


# ---------------------------------------------------------------------------
# property: incremental digest == whole-body digest
# ---------------------------------------------------------------------------

TEXT = st.text(st.sampled_from(list('ab "\\/<>=\n\t\x00éß漢 😀')), max_size=10)
CALL = st.builds(lambda name, text: ToolCall(name, {"text": text} if text else {}),
                 st.sampled_from(["echo", "transfer_to_checker"]), TEXT)
RESULT = st.one_of(st.builds(ToolResult.ok, TEXT),
                   st.builds(ToolResult.fail, st.sampled_from(["E_ARGS", "E_PARSE"]), TEXT))
TURN = st.one_of(
    st.builds(lambda text: Turn("user", text), TEXT),
    st.builds(lambda text: Turn("system", f"handoff to B: {text}"), TEXT),
    st.builds(lambda text: Turn("agent:A", text), TEXT),
    st.builds(lambda call, result: Turn("agent:B", tool_call=call, observation=result),
              CALL, RESULT),
    st.builds(lambda text: Turn("agent:A", text, observation=ToolResult.fail("E_PARSE", "x")),
              TEXT),
    st.builds(lambda text: Turn("tool:echo", text), TEXT),
)
REQUEST = st.tuples(st.integers(0, len(SYSTEMS) - 1), st.sampled_from([DIRECT, TRANSFORMED]),
                    st.booleans(), st.sampled_from(["m", "модель"]))
STEP = st.one_of(st.tuples(st.just("turn"), TURN), st.tuples(st.just("request"), REQUEST),
                 st.tuples(st.just("again"), st.integers(0, 50)))


# 200 examples, or the loaded profile's count when larger ("fuzz", tests/conftest.py)
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(steps=st.lists(STEP, max_size=40))
def test_incremental_digest_equals_whole_body_digest(steps):
    context = Context()
    sent = []
    for kind, value in steps:
        if kind == "turn":
            context.append(value)
            continue
        if kind == "again":
            if not sent:
                continue
            request = sent[value % len(sent)]  # an older, shorter list
        else:
            request = request_for(context, *value)
            fresh = build_messages(SYSTEMS[value[0]], Context(list(context.turns)), value[1],
                                   TOOLS if value[2] else [])
            assert request.messages == fresh
            sent.append(request)
        assert request_digest(request) == oracle(request)


def test_agents_alternating_through_handoffs_match_the_oracle():
    # each handoff brings back a system text whose running hash is behind
    context = Context()
    for i in range(30):
        context.append(Turn("agent:A", tool_call=ToolCall("echo", {"text": f"ü{i}"}),
                            observation=ToolResult.ok(f"ü{i}")))
        if i % 4 == 3:
            context.append(Turn("system", f"handoff {i}"))
        request = request_for(context, i % len(SYSTEMS), (DIRECT, TRANSFORMED)[i % 2],
                              i % 3 != 0)
        assert request_digest(request) == oracle(request)


# ---------------------------------------------------------------------------
# lists edited after build_messages returned
# ---------------------------------------------------------------------------

def _context(turns: int) -> Context:
    context = Context()
    for i in range(turns):
        context.append(Turn("user", f"question {i}"))
    return context


def test_edited_lists_get_the_whole_body_digest():
    # a built request's messages are a tuple: every edit raises, and neither
    # the request's digest nor the context's next request changes
    edits = [
        lambda m: m.append({"role": "user", "content": "appended"}),
        lambda m: m.__setitem__(2, {"role": "user", "content": "replaced"}),
        lambda m: m.__setitem__(0, {"role": "system", "content": "another system text"}),
        lambda m: m.insert(1, {"role": "user", "content": "inserted"}),
        lambda m: m.pop(),
        lambda m: m.reverse(),
        lambda m: m.__delitem__(slice(1, 3)),
        lambda m: m.__iadd__([{"role": "user", "content": "added"}]),
    ]
    for edit in edits:
        context = _context(4)
        warm = request_for(context, 1, DIRECT, True)
        request_digest(warm)  # the context now holds a running hash
        request = request_for(context, 1, DIRECT, True)
        with pytest.raises((AttributeError, TypeError)):
            edit(request.messages)
        assert request_digest(request) == oracle(request)
        assert request_digest(warm) == oracle(warm)
        after = request_for(context, 1, DIRECT, True)
        assert after.messages == build_messages(SYSTEMS[1], _context(4), DIRECT, TOOLS)
        assert request_digest(after) == oracle(after)


def test_edited_copies_of_a_message_list_get_the_whole_body_digest():
    request = request_for(_context(3), 2, TRANSFORMED, True)
    request_digest(request)
    for copied in (copy.copy(request.messages), copy.deepcopy(request.messages),
                   request.messages[:], pickle.loads(pickle.dumps(request.messages))):
        assert type(copied) is tuple
        unedited = CompletionRequest("m", copied, None, TRANSFORMED)
        assert request_digest(unedited) == oracle(unedited)
    for copied in (list(request.messages), list(copy.deepcopy(request.messages))):
        copied.append({"role": "user", "content": "more"})
        edited = CompletionRequest("m", copied, None, TRANSFORMED)
        assert request_digest(edited) == oracle(edited)
        assert request_digest(request) == oracle(request)


def test_copied_contexts_render_and_hash_afresh():
    context = _context(3)
    request_digest(request_for(context, 1, DIRECT, True))
    copied = copy.deepcopy(context)
    copied.append(Turn("user", "only in the copy"))
    request = request_for(copied, 1, DIRECT, True)
    assert request.messages[-1]["content"] == "only in the copy"
    assert request_digest(request) == oracle(request)
    request = request_for(context, 1, DIRECT, True)
    assert len(request.messages) == 4
    assert request_digest(request) == oracle(request)


def test_hand_built_message_lists_get_the_whole_body_digest():
    for messages in ([], [{"role": "user", "content": "hé"}],
                     [{"role": "system", "content": "s"}, {"role": "user", "content": "x"}]):
        for mode, tools in ((DIRECT, TOOLS), (TRANSFORMED, None)):
            request = CompletionRequest(model="m", messages=messages, tools=tools, mode=mode)
            assert request_digest(request) == oracle(request)


def test_tool_lists_are_hashed_by_content():
    # schemas built anew for each variant, and values that are == but
    # serialize differently (True and 1)
    variants = [("Probe.", [ToolParam("x", "X.")]),
                ("Probe.", [ToolParam("x", "X.", required=1)]),
                ("Probe.", [ToolParam("x", "X.", required=False)]),
                ("Probe.", [ToolParam("x", "X.", required=0)]),
                ("Probe, changed.", [ToolParam("x", "X.", required=0)]),
                ("Probe, changed.", [ToolParam("x", "X.", required=0), ToolParam("y")])]
    for description, params in variants:
        schema = ToolSchema("probe", description, params)
        request = CompletionRequest("m", [{"role": "user", "content": "x"}], [schema], DIRECT)
        assert request_digest(request) == oracle(request)


def test_fields_that_are_not_text_still_get_the_whole_body_digest():
    # agent instructions and tool descriptions read from a .def file can be any JSON
    schema = ToolSchema("probe", ["not", "text"], [ToolParam("x", {"nested": 1})])
    context = _context(2)
    for _ in range(2):
        messages = build_messages(["instructions", "as a list"], context, DIRECT, [schema])
        request = CompletionRequest("m", messages, [schema], DIRECT)
        assert request_digest(request) == oracle(request)
        context.append(Turn("user", "again"))


def test_the_catalog_is_rendered_once_per_tool_list(monkeypatch):
    real = engine.render_transformed_schema
    calls = []
    monkeypatch.setattr(engine, "render_transformed_schema",
                        lambda tools: calls.append(tools) or real(tools))
    monkeypatch.setattr(engine, "_CATALOGS", {})

    def system_text(schema):
        return build_messages("S.", _context(2), TRANSFORMED, [schema])[0]["content"]

    def rendered(description, *params):
        schema = ToolSchema("probe", description, params)
        assert system_text(schema) == "S.\n\n" + real([schema])
        return len(calls)

    for _ in range(3):  # a schema built anew each time: the same content, the same key
        assert rendered("Probe.", ToolParam("x", "X.")) == 1
    assert rendered("Probe.", ToolParam("x", "X.", required=False)) == 2  # a new key
    # the same text as required=True, but JSON tells 1 from true: a key of its own
    assert rendered("Probe.", ToolParam("x", "X.", required=1)) == 3
    assert rendered("Probe.", ToolParam("x", "X.")) == 3
    for _ in range(2):  # no key at all: rendered every time
        calls_before = len(calls)
        assert rendered(["not", "text"], ToolParam("x", "X.")) == calls_before + 1


def test_a_full_tool_list_memo_starts_again():
    # the memo holds at most _TOOLS_MEMO_LIMIT tool lists: the next new one clears it
    limit = backends._TOOLS_MEMO_LIMIT
    table, rendered = {}, []

    def render(tools):
        rendered.append(tools[0].name)
        return tools[0].name

    names = [f"t{i}" for i in range(limit)]
    for name in names + ["t0", "extra", "t0", "extra"]:
        assert backends.remembered(table, [ToolSchema(name, "N.", [])], render) == name
    assert rendered == names + ["extra", "t0"]
    assert len(table) == 2


# sha256 over the newline-joined request digests of the session below
REGISTRY_SESSION_DIGESTS = {
    DIRECT: "0a8d0d1e485550445fb88a6c12796fb8ea9cae19a8e0c72069b381708e3c3645",
    TRANSFORMED: "31d17af735fedb1d7fb4739c31a7f32dbf0eeecdf2002c69e8da46da960372db",
}


@pytest.mark.parametrize("mode", [DIRECT, TRANSFORMED])
def test_a_registry_tool_session_has_pinned_digests(tmp_path, mode):
    # registry tools with required and optional parameters, read through a
    # RegistryToolSuite: the catalog and the tools body they give are pinned
    store = RegistryStore(tmp_path / "registry")
    tool_names = ["echo", "write_text_file", "list_directory"]
    for name in tool_names:
        store.put_tool(builtin_tool(name))
    digests = []

    def reply(step):
        def answer(request):
            digests.append(request_digest(request))
            assert digests[-1] == oracle(request)
            return step
        return answer

    steps = [ToolCall("transfer_to_worker", {"message": "write it"}),
             ToolCall("write_text_file", {"path": "a.txt", "content": "alpha «β»"}),
             ToolCall("list_directory", {}),
             ToolCall("write_text_file", {"path": "b.txt"}),
             ToolCall("transfer_to_boss", {}),
             ToolCall("echo", {"text": "done"}),
             "finished"]
    boss = AgentDefinition("Boss", instructions="Route.", tool_names=["echo"],
                           transfer_targets=["Worker"])
    worker = AgentDefinition("Worker", instructions="Work.", tool_names=tool_names,
                             transfer_targets=["Boss"])
    outcome = orchestrate(boss, [worker], "task",
                          Engine(mode, ScriptedBackend([reply(step) for step in steps])),
                          RegistryToolSuite(store, workdir=tmp_path / "work"))
    assert outcome.kind == "completed"
    assert [t.observation.payload for t in outcome.context if t.tool_call][1:3] == [
        "wrote 9 characters", "a.txt"]
    assert len(digests) == len(steps)
    joined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    assert joined == REGISTRY_SESSION_DIGESTS[mode]


def digesting(steps, digests: list) -> ScriptedBackend:
    """A backend that replies with ``steps`` in order, first appending each
    request's digest to ``digests`` and checking it against the oracle."""
    def reply(step):
        def answer(request):
            digests.append(request_digest(request))
            assert digests[-1] == oracle(request)
            return step
        return answer
    return ScriptedBackend([reply(step) for step in steps])


class EchoSuite:
    """The ``echo`` tool of TOOLS, answering with its text and a non-ASCII mark."""

    def __init__(self, mark: str = ""):
        self.mark = mark

    def schema(self, name):
        return TOOLS[0]

    def run(self, call):
        return ToolResult.ok(call.arguments["text"] + self.mark)


# sha256 over the newline-joined request digests of the session below
HANDOFF_SESSION_DIGESTS = {
    DIRECT: "f23d9921b479dae41522bc9d5758eb64582e1968eb99e034d782344155bf016a",
    TRANSFORMED: "e7dc873d27b7068b1c89224996e138c0fefd5c014a013b475b1f9bfbcd7c6bf8",
}


@pytest.mark.parametrize("mode", [DIRECT, TRANSFORMED])
def test_a_handoff_heavy_session_has_pinned_digests(mode):
    # three workers that hand off to one another, each speaking again after
    # the others: every agent's running hash falls behind between its turns
    digests = []
    steps = [ToolCall("transfer_to_alpha", {"message": "begin «α»"}),
             ToolCall("echo", {"text": "über"}),
             ToolCall("transfer_to_beta", {}),
             ToolCall("echo", {"text": "漢字"}),
             ToolCall("transfer_to_gamma", {"message": "ĝis"}),
             ToolCall("echo", {"text": "😀 \"quoted\""}),
             ToolCall("transfer_to_alpha", {}),
             ToolCall("echo", {"text": "zurück"}),
             ToolCall("transfer_to_gamma", {"message": "→"}),
             ToolCall("transfer_to_beta", {}),
             ToolCall("echo", {"text": "ß\n"}),
             ToolCall("transfer_to_boss", {"message": "fertig"}),
             "finished ✓"]
    names = ["Alpha", "Beta", "Gamma"]
    boss = AgentDefinition("Boss", instructions="Route «all».", transfer_targets=names)
    workers = [AgentDefinition(name, instructions=f"Work as {name} ✓.", tool_names=["echo"],
                               transfer_targets=[n for n in ["Boss", *names] if n != name])
               for name in names]
    outcome = orchestrate(boss, workers, "task ½", Engine(mode, digesting(steps, digests)),
                          EchoSuite(" ✓"))
    assert outcome.kind == "completed"
    assert [t.observation.payload for t in outcome.context
            if t.tool_call and t.tool_call.tool_name == "echo"][:2] == ["über ✓", "漢字 ✓"]
    assert len(digests) == len(steps)
    joined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    assert joined == HANDOFF_SESSION_DIGESTS[mode]


def test_cut_history_is_rendered_again():
    context = _context(5)
    request_digest(request_for(context, 0, TRANSFORMED, False))
    del context.turns[2:]
    request = request_for(context, 0, TRANSFORMED, False)
    assert request.messages == build_messages(SYSTEMS[0], _context(2), TRANSFORMED, [])
    assert request_digest(request) == oracle(request)


# ---------------------------------------------------------------------------
# quadratic guard: work per turn does not grow with history
# ---------------------------------------------------------------------------

class CountingEncoder:
    def __init__(self, inner):
        self.inner = inner
        self.chars = 0

    def encode(self, value):
        out = self.inner.encode(value)
        self.chars += len(out)
        return out


def _session_work(turns: int, monkeypatch, tmp_path) -> tuple[int, int, int]:
    """(characters the digest encoder emits, tool calls rendered, tool-call
    turns in the context) over one recorded orchestrator-worker session of
    ``turns`` engine steps."""
    encoder = CountingEncoder(backends._ENCODER)
    monkeypatch.setattr(backends, "_ENCODER", encoder)
    rendered = []
    real_render = engine.render_tool_call
    monkeypatch.setattr(engine, "render_tool_call",
                        lambda call: rendered.append(call) or real_render(call))
    steps = []
    while len(steps) < turns - 1:
        steps += [ToolCall("transfer_to_worker", {"message": "go"}),
                  ToolCall("echo", {"text": "x" * 40}),
                  ToolCall("echo", {"text": "y" * 40}),
                  ToolCall("transfer_to_boss", {})]
    steps = steps[:turns - 1] + ["done"]
    boss = AgentDefinition("Boss", instructions="Route.", transfer_targets=["Worker"])
    worker = AgentDefinition("Worker", instructions="Work.", tool_names=["echo"],
                             transfer_targets=["Boss"])

    recorder = CassetteBackend(tmp_path / f"{turns}.cassette", "record",
                               inner=ScriptedBackend(steps))
    outcome = orchestrate(boss, [worker], "task", Engine(DIRECT, recorder), EchoSuite(),
                          OrchestrationLimits(max_turns=turns + 1, max_handoffs=turns))
    assert outcome.kind == "completed"
    monkeypatch.undo()
    return encoder.chars, len(rendered), sum(t.tool_call is not None for t in outcome.context)


def test_per_turn_work_does_not_grow_with_history(monkeypatch, tmp_path):
    work = {n: _session_work(n, monkeypatch, tmp_path) for n in (100, 200, 400)}
    for n in (100, 200):
        # serializing the whole history on every turn would make this about 4
        assert work[2 * n][0] / work[n][0] < 2.2, work
    for chars, rendered, call_turns in work.values():
        assert rendered <= call_turns, work  # each turn is rendered once


def _digest_chars(workers: int, turns: int, monkeypatch) -> tuple[int, int]:
    """(characters the digest encoder emits, characters of the final history's
    messages encoded whole) over one ``orchestrate`` session of ``turns``
    engine steps: the orchestrator hands off to the first worker, and each
    worker echoes once and hands off to the next, or with one worker echoes
    throughout; the last worker to speak ends the session."""
    encoder = CountingEncoder(backends._ENCODER)
    monkeypatch.setattr(backends, "_ENCODER", encoder)
    names = [f"W{i}" for i in range(workers)]
    steps = [ToolCall("transfer_to_w0", {"message": "go"})]
    while len(steps) < turns - 1:
        current = (len(steps) // 2) % workers
        steps.append(ToolCall("echo", {"text": f"{len(steps)} " + "x" * 120}))
        if workers > 1:
            steps.append(ToolCall(f"transfer_to_w{(current + 1) % workers}", {}))
    steps = steps[:turns - 1] + ["done"]
    boss = AgentDefinition("Boss", instructions="Route.", transfer_targets=names)
    crew = [AgentDefinition(name, instructions=f"Work as {name}.", tool_names=["echo"],
                            transfer_targets=[n for n in ["Boss", *names] if n != name])
            for name in names]
    outcome = orchestrate(boss, crew, "task", Engine(DIRECT, digesting(steps, [])),
                          EchoSuite(), OrchestrationLimits(max_turns=turns + 1,
                                                           max_handoffs=turns))
    assert outcome.kind == "completed"
    monkeypatch.undo()
    history = build_messages("", Context(list(outcome.context.turns)), DIRECT, [])[1:]
    return encoder.chars, len(backends._ENCODER.encode(history))


@pytest.mark.parametrize("workers", [1, 3])
def test_each_message_is_encoded_once_however_many_agents_speak(monkeypatch, workers):
    # serializing again, for each agent, what was said since it last spoke
    # would make the three-worker session several times its history
    chars, history = _digest_chars(workers, 240, monkeypatch)
    assert chars <= 1.1 * history, (chars, history)
