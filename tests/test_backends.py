"""Backends: scripted steps, http client seam, cassettes, retry policy."""

import base64
import json
import threading

import pytest

from agentos.backends import (
    CASSETTE_MAGIC,
    CassetteBackend,
    CompletionRequest,
    CompletionResponse,
    HttpBackend,
    RetryPolicy,
    ScriptedBackend,
    TransientBackendError,
    backend_complete,
    request_digest,
)
from agentos.errors import BackendError, CassetteMissError, ScriptExhaustedError
from agentos.kernel import ToolCall


def req(text="hello", model="m1") -> CompletionRequest:
    return CompletionRequest(model=model,
                             messages=[{"role": "user", "content": text}])


# ---------------------------------------------------------------------------
# scripted
# ---------------------------------------------------------------------------

def test_scripted_step_kinds():
    backend = ScriptedBackend([
        "plain text",
        ToolCall("click", {"bid": "3"}),
        lambda request: f"echo:{request.messages[-1]['content']}",
    ])
    assert backend.complete(req()).text == "plain text"
    assert backend.complete(req()).tool_call == ToolCall("click", {"bid": "3"})
    assert backend.complete(req("abc")).text == "echo:abc"
    assert backend.calls == 3
    with pytest.raises(ScriptExhaustedError):
        backend.complete(req())


def test_scripted_thread_safety():
    backend = ScriptedBackend([str(i) for i in range(200)])
    seen = []
    lock = threading.Lock()

    def worker():
        for _ in range(50):
            response = backend.complete(req())
            with lock:
                seen.append(response.text)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # every step consumed exactly once
    assert sorted(seen, key=int) == [str(i) for i in range(200)]


# ---------------------------------------------------------------------------
# digest
# ---------------------------------------------------------------------------

def test_digest_sensitivity():
    base = request_digest(req("a"))
    assert base == request_digest(req("a"))
    assert base != request_digest(req("b"))
    assert base != request_digest(req("a", model="other"))
    assert len(base) == 64 and set(base) <= set("0123456789abcdef")


# ---------------------------------------------------------------------------
# http
# ---------------------------------------------------------------------------

def _transport(status, body, log):
    def post(url, payload, headers):
        log.append((url, payload, headers))
        return status, body
    return post


def _chat_body(content=None, tool_call=None):
    message = {"content": content}
    if tool_call:
        message["tool_calls"] = [{"function": tool_call}]
    return {"choices": [{"message": message}]}


def test_http_payload_and_auth():
    log = []
    backend = HttpBackend("http://api.example/v1", api_key="sk-secret",
                          transport=_transport(200, _chat_body("hi"), log))
    response = backend.complete(req("question"))
    assert response.text == "hi"
    url, payload, headers = log[0]
    assert url == "http://api.example/v1/chat/completions"
    assert payload["messages"][-1]["content"] == "question"
    assert "tools" not in payload  # transformed mode never sends schemas
    assert headers["Authorization"] == "Bearer sk-secret"


def test_http_direct_mode_sends_tool_schemas():
    from agentos.engine import ToolParam, ToolSchema

    log = []
    backend = HttpBackend("http://api.example", transport=_transport(
        200, _chat_body("ok"), log))
    request = CompletionRequest(
        model="m", messages=[{"role": "user", "content": "x"}],
        tools=[ToolSchema("f", "d", [ToolParam("p", "pd")])], mode="direct")
    backend.complete(request)
    tools = log[0][1]["tools"]
    assert tools[0]["function"]["name"] == "f"
    assert tools[0]["function"]["parameters"]["required"] == ["p"]


def test_http_direct_mode_tools_payload():
    from agentos.engine import ToolParam, ToolSchema

    log = []
    backend = HttpBackend("http://api.example", transport=_transport(
        200, _chat_body("ok"), log))
    backend.complete(CompletionRequest(
        model="m", messages=[{"role": "user", "content": "x"}],
        tools=[ToolSchema("lookup", "Find a word.",
                          [ToolParam("word", "The word."),
                           ToolParam("lang", "Language code.", required=False)]),
               ToolSchema("now", "The time.", [])],
        mode="direct"))
    assert log[0][1]["tools"] == [
        {"type": "function",
         "function": {"name": "lookup", "description": "Find a word.",
                      "parameters": {
                          "type": "object",
                          "properties": {
                              "word": {"type": "string", "description": "The word."},
                              "lang": {"type": "string", "description": "Language code."}},
                          "required": ["word"]}}},
        {"type": "function",
         "function": {"name": "now", "description": "The time.",
                      "parameters": {"type": "object", "properties": {}, "required": []}}},
    ]
    assert list(log[0][1]["tools"][0]["function"]["parameters"]["properties"]) == ["word", "lang"]


def test_http_parses_structured_tool_call():
    body = _chat_body(tool_call={"name": "click",
                                 "arguments": json.dumps({"bid": "7", "n": 2})})
    backend = HttpBackend("http://x", transport=_transport(200, body, []))
    response = backend.complete(req())
    assert response.tool_call == ToolCall("click", {"bid": "7", "n": "2"})


def test_http_blank_tool_call_arguments_are_none():
    body = _chat_body(tool_call={"name": "click", "arguments": " \n"})
    backend = HttpBackend("http://x", transport=_transport(200, body, []))
    assert backend.complete(req()).tool_call == ToolCall("click", {})


def test_http_5xx_transient_4xx_hard():
    t5 = HttpBackend("http://x", transport=_transport(503, {}, []))
    with pytest.raises(TransientBackendError):
        t5.complete(req())
    t4 = HttpBackend("http://x", transport=_transport(401, {}, []))
    with pytest.raises(BackendError) as err:
        t4.complete(req())
    assert not isinstance(err.value, TransientBackendError)


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------

class _Flaky:
    def __init__(self, failures, response_text="done"):
        self.failures = failures
        self.calls = 0
        self.response_text = response_text

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError("boom")
        return CompletionResponse(text=self.response_text)


def test_retry_recovers_with_backoff():
    sleeps = []
    backend = _Flaky(failures=2)
    policy = RetryPolicy(sleep=sleeps.append)
    response = backend_complete(req(), backend, policy)
    assert response.text == "done"
    assert backend.calls == 3
    assert sleeps == [0.5, 1.0]  # exponential from 500ms


def test_retry_exhaustion():
    backend = _Flaky(failures=99)
    policy = RetryPolicy(sleep=lambda s: None)
    with pytest.raises(BackendError) as err:
        backend_complete(req(), backend, policy)
    assert backend.calls == 3
    assert "after 3 attempts" in str(err.value)


def test_hard_errors_not_retried():
    class Hard:
        calls = 0

        def complete(self, request):
            self.calls += 1
            raise BackendError("rejected")

    backend = Hard()
    with pytest.raises(BackendError):
        backend_complete(req(), backend, RetryPolicy(sleep=lambda s: None))
    assert backend.calls == 1


def test_script_exhaustion_propagates_immediately():
    backend = ScriptedBackend([])
    with pytest.raises(ScriptExhaustedError):
        backend_complete(req(), backend, RetryPolicy(sleep=lambda s: None))


# ---------------------------------------------------------------------------
# cassette
# ---------------------------------------------------------------------------

def test_cassette_record_then_replay(tmp_path):
    path = tmp_path / "session.cassette"
    inner = ScriptedBackend(["first", ToolCall("go", {"x": "1"}), "second"])
    recorder = CassetteBackend(path, "record", inner=inner)
    r1 = recorder.complete(req("a"))
    r2 = recorder.complete(req("b"))
    r3 = recorder.complete(req("a"))  # same digest as r1, distinct response
    assert (r1.text, r3.text) == ("first", "second")
    assert r2.tool_call == ToolCall("go", {"x": "1"})

    replayer = CassetteBackend(path, "replay")
    assert replayer.complete(req("a")).text == "first"
    assert replayer.complete(req("b")).tool_call == ToolCall("go", {"x": "1"})
    # FIFO per digest: the repeated request gets the second recording
    assert replayer.complete(req("a")).text == "second"
    with pytest.raises(CassetteMissError):
        replayer.complete(req("a"))
    with pytest.raises(CassetteMissError):
        replayer.complete(req("never-recorded"))


def test_cassette_line_format(tmp_path):
    path = tmp_path / "f.cassette"
    recorder = CassetteBackend(path, "record", inner=ScriptedBackend(["hé🙂"]))
    recorder.complete(req("q"))
    line = path.read_text(encoding="utf-8").strip()
    magic, digest, length, blob = line.split(" ", 3)
    assert magic == CASSETTE_MAGIC
    assert digest == request_digest(req("q"))
    assert int(length) == len(blob.encode("utf-8"))
    decoded = json.loads(base64.b64decode(blob))
    assert decoded == {"text": "hé🙂", "tool_call": None}


def test_cassette_rejects_corrupt_and_missing(tmp_path):
    with pytest.raises(CassetteMissError):
        CassetteBackend(tmp_path / "absent.cassette", "replay")
    bad = tmp_path / "bad.cassette"
    bad.write_text("B9 deadbeef 4 Zm9v\n", encoding="utf-8")
    with pytest.raises(BackendError):
        CassetteBackend(bad, "replay")


def test_cassette_replay_skips_blank_lines(tmp_path):
    path = tmp_path / "spaced.cassette"
    recorder = CassetteBackend(path, "record", inner=ScriptedBackend(["one", "two"]))
    recorder.complete(req("a"))
    recorder.complete(req("b"))
    path.write_bytes(b"\n  \n" + path.read_bytes().replace(b"\n", b"\n\n", 1))
    replayer = CassetteBackend(path, "replay")
    assert (replayer.complete(req("a")).text, replayer.complete(req("b")).text) == ("one", "two")


def test_cassette_refuses_a_bad_mode(tmp_path):
    with pytest.raises(ValueError, match="bad cassette mode: replay-or-record$"):
        CassetteBackend(tmp_path / "x.cassette", "replay-or-record")
    assert not (tmp_path / "x.cassette").exists()


def test_cassette_record_requires_inner(tmp_path):
    backend = CassetteBackend(tmp_path / "x.cassette", "record")
    with pytest.raises(BackendError):
        backend.complete(req())
