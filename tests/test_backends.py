"""Backends: scripted steps, http against a loopback server, cassettes, retry policy."""

import base64
import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import agentos

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

from conftest import hang_up, reply, short_body, stall


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
# http, against the loopback server (tests/conftest.py)
# ---------------------------------------------------------------------------

def _chat_body(content=None, tool_call=None):
    message = {"content": content}
    if tool_call:
        message["tool_calls"] = [{"function": tool_call}]
    return {"choices": [{"message": message}]}


def pin(sent) -> tuple:
    """What a request sent: the sha256 of its body, its path below the route,
    and its Content-Type and Authorization headers."""
    return (hashlib.sha256(sent.body).hexdigest(), sent.path,
            sent.headers["content-type"], sent.headers["authorization"])


# the pins of each request below, taken where requests 2.34.2 posted them
PINS = {
    "payload_and_auth": (
        "6ce20011580db96f8f23da3b232375fd53ced7f869565955e7ad9aaa7151a5ea",
        "/v1/chat/completions", "application/json", "Bearer sk-secret"),
    "direct_schemas": (
        "5390403270a9c883286b29bc1916795232a0b8428a95fddaf4a986f89faae583",
        "/chat/completions", "application/json", None),
    "direct_payload": (
        "df0f40664a2f69a10d3dab99464c455851f1f9d3ca76dfb3e6541dc3e26ac547",
        "/chat/completions", "application/json", None),
    "hello": (
        "466664f3a4a5862d22a341575f133393f40e39eedbb6d6c83f24749734af8d04",
        "/chat/completions", "application/json", None),
}


def test_http_payload_and_auth(loopback):
    route = loopback.route([reply(200, _chat_body("hi"))])
    backend = HttpBackend(route.url + "/v1/", api_key="sk-secret")
    response = backend.complete(req("question"))
    assert response.text == "hi"
    [sent] = route.sent
    assert pin(sent) == PINS["payload_and_auth"]
    payload = json.loads(sent.body)
    assert payload["messages"][-1]["content"] == "question"
    assert "tools" not in payload  # transformed mode never sends schemas


def test_http_direct_mode_sends_tool_schemas(loopback):
    from agentos.engine import ToolParam, ToolSchema

    route = loopback.route([reply(200, _chat_body("ok"))])
    request = CompletionRequest(
        model="m", messages=[{"role": "user", "content": "x"}],
        tools=[ToolSchema("f", "d", [ToolParam("p", "pd")])], mode="direct")
    HttpBackend(route.url).complete(request)
    assert pin(route.sent[0]) == PINS["direct_schemas"]
    tools = json.loads(route.sent[0].body)["tools"]
    assert tools[0]["function"]["name"] == "f"
    assert tools[0]["function"]["parameters"]["required"] == ["p"]


def test_http_direct_mode_tools_payload(loopback):
    from agentos.engine import ToolParam, ToolSchema

    route = loopback.route([reply(200, _chat_body("ok"))])
    HttpBackend(route.url).complete(CompletionRequest(
        model="m", messages=[{"role": "user", "content": "x"}],
        tools=[ToolSchema("lookup", "Find a word.",
                          [ToolParam("word", "The word."),
                           ToolParam("lang", "Language code.", required=False)]),
               ToolSchema("now", "The time.", [])],
        mode="direct"))
    assert pin(route.sent[0]) == PINS["direct_payload"]
    tools = json.loads(route.sent[0].body)["tools"]
    assert tools == [
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
    assert list(tools[0]["function"]["parameters"]["properties"]) == ["word", "lang"]


def test_http_parses_structured_tool_call(loopback):
    body = _chat_body(tool_call={"name": "click",
                                 "arguments": json.dumps({"bid": "7", "n": 2})})
    route = loopback.route([reply(200, body)])
    response = HttpBackend(route.url).complete(req())
    assert response.tool_call == ToolCall("click", {"bid": "7", "n": "2"})
    assert pin(route.sent[0]) == PINS["hello"]


def test_http_blank_tool_call_arguments_are_none(loopback):
    body = _chat_body(tool_call={"name": "click", "arguments": " \n"})
    route = loopback.route([reply(200, body)])
    assert HttpBackend(route.url).complete(req()).tool_call == ToolCall("click", {})
    assert pin(route.sent[0]) == PINS["hello"]


def test_http_5xx_transient_4xx_hard(loopback):
    for status in (500, 503):
        route = loopback.route([reply(status, {})])
        with pytest.raises(TransientBackendError, match=f"server error {status}"):
            HttpBackend(route.url).complete(req())
        assert pin(route.sent[0]) == PINS["hello"]
    for status in (400, 401, 429):
        route = loopback.route([reply(status, {"error": "no"})])
        with pytest.raises(BackendError, match=f"rejected with status {status}") as err:
            HttpBackend(route.url).complete(req())
        assert not isinstance(err.value, TransientBackendError)
        assert pin(route.sent[0]) == PINS["hello"]


def test_http_names_agentos_as_its_user_agent(loopback):
    route = loopback.route([reply(200, _chat_body("hi"))])
    HttpBackend(route.url).complete(req())
    assert route.sent[0].headers["user-agent"] == f"agentos/{agentos.__version__}"


@pytest.mark.parametrize("answer", [hang_up, short_body], ids=["hang-up", "short-body"])
def test_http_broken_replies_are_transient(loopback, answer):
    route = loopback.route([answer])
    with pytest.raises(TransientBackendError, match="transport failure"):
        HttpBackend(route.url).complete(req())


def test_http_short_error_body_is_transient(loopback):
    def short_rejection(handler):
        handler.send_response(400)
        handler.send_header("Content-Length", "50")
        handler.end_headers()
        handler.wfile.write(b"{")

    route = loopback.route([short_rejection])
    with pytest.raises(TransientBackendError, match="transport failure"):
        HttpBackend(route.url).complete(req())


def test_http_slow_reply_is_transient(loopback):
    route = loopback.route([stall])
    with pytest.raises(TransientBackendError, match="timed out"):
        HttpBackend(route.url, timeout=0.2).complete(req())


def test_http_refused_connection_is_transient(monkeypatch):
    for name in ("no_proxy", "NO_PROXY"):  # no proxy answers in the server's place
        monkeypatch.setenv(name, "127.0.0.1")
    with socket.socket() as bound:  # bound, never listening: connecting is refused
        bound.bind(("127.0.0.1", 0))
        port = bound.getsockname()[1]
        with pytest.raises(TransientBackendError, match="transport failure"):
            HttpBackend(f"http://127.0.0.1:{port}").complete(req())


def test_http_body_that_is_not_json(loopback):
    route = loopback.route([reply(200, b"<html>busy</html>")])
    with pytest.raises(BackendError, match="malformed completion payload"):
        HttpBackend(route.url).complete(req())


@pytest.mark.parametrize("api_key, path", [("sk-secret\n", ""), ("sk-secret\r\nX: 1", ""),
                                           ("sk-secret-\u4e00", ""), ("sk-secret", "/a b")],
                         ids=["newline", "header-split", "not-latin-1", "spaced-url"])
def test_http_unsendable_request_is_hard_and_quotes_no_key(loopback, api_key, path):
    route = loopback.route()
    sleeps = []
    with pytest.raises(BackendError) as err:
        backend_complete(req(), HttpBackend(route.url + path, api_key=api_key),
                         RetryPolicy(sleep=sleeps.append))
    assert "request cannot be sent" in str(err.value)
    assert "sk-secret" not in str(err.value)
    assert not isinstance(err.value, TransientBackendError)
    assert (sleeps, route.sent) == ([], [])


@pytest.mark.parametrize("status", [301, 302, 303])
def test_http_redirect_carries_no_key(loopback, status):
    target = loopback.route([reply(200, _chat_body("moved"))])

    def moved(handler):
        handler.send_response(status)
        handler.send_header("Location", target.url + "/chat/completions")
        handler.send_header("Content-Length", "0")
        handler.end_headers()

    route = loopback.route([moved])
    assert HttpBackend(route.url, api_key="sk-secret").complete(req()).text == "moved"
    assert route.sent[0].headers["authorization"] == "Bearer sk-secret"
    [followed] = target.sent
    assert (followed.path, followed.body) == ("/chat/completions", b"")
    assert followed.headers["authorization"] is None
    assert followed.headers["user-agent"] == f"agentos/{agentos.__version__}"


@pytest.mark.parametrize("status", [307, 308])
def test_http_method_preserving_redirect_is_rejected(loopback, status):
    target = loopback.route([reply(200, _chat_body("moved"))])

    def moved(handler):
        handler.send_response(status)
        handler.send_header("Location", target.url + "/chat/completions")
        handler.send_header("Content-Length", "0")
        handler.end_headers()

    route = loopback.route([moved])
    sleeps = []
    with pytest.raises(BackendError, match=f"request rejected with status {status}") as err:
        backend_complete(req(), HttpBackend(route.url, api_key="sk-secret"),
                         RetryPolicy(sleep=sleeps.append))
    assert not isinstance(err.value, TransientBackendError)
    assert (sleeps, len(route.sent), target.sent) == ([], 1, [])


@pytest.mark.parametrize("base_url", ["file:///D", "ftp://api.example/v1", "data:,x",
                                      "api.example/v1", "", "http:api.example"])
def test_http_base_url_must_be_http_or_https(base_url):
    with pytest.raises(BackendError, match="must start with http:// or https://"):
        HttpBackend(base_url)


def test_http_schemes_in_any_case_are_accepted():
    assert HttpBackend("HTTPS://api.example/v1/").base_url == "HTTPS://api.example/v1"


def test_http_post_needs_no_requests_module(loopback):
    # one process: with `requests` unimportable, a POST still completes
    route = loopback.route([reply(200, _chat_body("hi"))])
    script = ("import sys\n"
              "sys.modules['requests'] = None\n"
              "from agentos.backends import CompletionRequest, HttpBackend\n"
              "request = CompletionRequest('m', [{'role': 'user', 'content': 'q'}])\n"
              "print(HttpBackend(sys.argv[1]).complete(request).text)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(agentos.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, route.url], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "hi\n", "")
    assert len(route.sent) == 1


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
