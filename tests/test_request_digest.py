"""The A1 request digest and message building are incremental per Context.

Every digest must equal sha256 of the request body serialized whole, however
the messages were built and whatever happened to the list afterwards.
"""

import copy
import hashlib
import json

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


@settings(max_examples=200, deadline=None)
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
        edit(request.messages)
        assert request_digest(request) == oracle(request)
        assert request_digest(warm) == oracle(warm)
        # the context itself is unaffected by what was done to a list
        after = request_for(context, 1, DIRECT, True)
        assert after.messages == build_messages(SYSTEMS[1], _context(4), DIRECT, TOOLS)
        assert request_digest(after) == oracle(after)


def test_edited_copies_of_a_message_list_get_the_whole_body_digest():
    request = request_for(_context(3), 2, TRANSFORMED, True)
    request_digest(request)
    for copied in (copy.copy(request.messages), copy.deepcopy(request.messages),
                   request.messages[:], list(request.messages)):
        unedited = CompletionRequest("m", copied, None, TRANSFORMED)
        assert request_digest(unedited) == oracle(unedited)
        copied.append({"role": "user", "content": "more"})
        edited = CompletionRequest("m", copied, None, TRANSFORMED)
        assert request_digest(edited) == oracle(edited)


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
    # the same schema object, edited between requests, and values that are
    # == but serialize differently (True and 1)
    schema = ToolSchema("probe", "Probe.", [ToolParam("x", "X.")])
    for change in (lambda: None, lambda: setattr(schema.parameters[0], "required", 1),
                   lambda: setattr(schema.parameters[0], "required", False),
                   lambda: setattr(schema.parameters[0], "required", 0),
                   lambda: setattr(schema, "description", "Probe, changed."),
                   lambda: schema.parameters.append(ToolParam("y"))):
        change()
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
    schema = ToolSchema("probe", "Probe.", [ToolParam("x", "X.")])

    def system_text():
        return build_messages("S.", _context(2), TRANSFORMED, [schema])[0]["content"]

    for _ in range(3):
        assert system_text() == "S.\n\n" + real([schema])
    assert len(calls) == 1
    schema.parameters[0].required = False  # the same object, edited: a new key
    assert system_text() == "S.\n\n" + real([schema])
    assert len(calls) == 2
    schema.description = ["not", "text"]  # no key at all: rendered every time
    for _ in range(2):
        assert system_text() == "S.\n\n" + real([schema])
    assert len(calls) == 4


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

    class Echo:
        def schema(self, name):
            return TOOLS[0]

        def run(self, call):
            return ToolResult.ok(call.arguments["text"])

    recorder = CassetteBackend(tmp_path / f"{turns}.cassette", "record",
                               inner=ScriptedBackend(steps))
    outcome = orchestrate(boss, [worker], "task", Engine(DIRECT, recorder), Echo(),
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
