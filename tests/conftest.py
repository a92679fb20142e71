"""Shared fixtures: form fixtures, registry views, a model-routing backend,
and a loopback chat-completions server."""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import settings

from agentos.backends import CompletionRequest, CompletionResponse, ScriptedBackend
from agentos.forms import RegistryView, parse_agent_form, parse_workflow_form

DATA = Path(__file__).parent / "data"

# Tests that set no example count of their own run hypothesis's default of
# 100 examples; HYPOTHESIS_PROFILE=fuzz runs them (the reply fuzz tests) longer.
settings.register_profile("fuzz", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def read_fixture(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


@pytest.fixture
def image_form():
    return parse_agent_form(read_fixture("image_agent_form.xml"))


@pytest.fixture
def financial_form():
    return parse_agent_form(read_fixture("financial_agents_form.xml"))


@pytest.fixture
def math_form():
    return parse_workflow_form(read_fixture("math_voting_workflow.xml"))


@pytest.fixture
def wiki_form():
    return parse_workflow_form(read_fixture("wiki_article_workflow.xml"))


# Registry views carrying exactly the external names the fixtures reference.
IMAGE_VIEW = RegistryView(tool_names=frozenset({"visual_question_answering"}))
FINANCIAL_VIEW = RegistryView(tool_names=frozenset({
    "save_raw_docs_to_vector_db", "query_db", "visual_question_answering"}))
WIKI_VIEW = RegistryView(agent_names=frozenset({"Web Surfer Agent"}))
MATH_VIEW = RegistryView()


class RouterBackend:
    """Dispatch requests to per-model scripted queues.

    Parallel rounds stay deterministic because each concurrently running
    event uses a distinct model, so no two threads contend for one queue.
    """

    def __init__(self, routes: dict[str, list]):
        self.backends = {model: ScriptedBackend(steps)
                         for model, steps in routes.items()}
        self.fallback = ScriptedBackend([])

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        backend = self.backends.get(request.model, self.fallback)
        return backend.complete(request)

    @property
    def calls(self) -> int:
        return sum(b.calls for b in self.backends.values()) + self.fallback.calls


# ---------------------------------------------------------------------------
# loopback chat-completions server
# ---------------------------------------------------------------------------

def reply(status: int, body=None) -> tuple[int, bytes]:
    """A reply of ``status`` whose body is ``body``'s JSON, or ``body`` itself
    when it is bytes."""
    return status, body if isinstance(body, bytes) else json.dumps(body).encode()


def hang_up(handler) -> None:
    """Read the request, then close the connection without a status line."""


def short_body(handler) -> None:
    """A 200 whose body stops short of its ``Content-Length``."""
    handler.send_response(200)
    handler.send_header("Content-Length", "100")
    handler.end_headers()
    handler.wfile.write(b'{"choices"')


def stall(handler) -> None:
    """No reply until the server shuts down; a client gives up first."""
    handler.server.released.wait(60)


class Sent:
    """One request as the server read it: its path below the route, its
    headers (an ``email.message.Message``, so names match in any case) and
    its body."""

    def __init__(self, path: str, headers, body: bytes):
        self.path, self.headers, self.body = path, headers, body


class Route:
    """Requests to ``url + "/..."`` are recorded in ``sent`` and answered
    with the queued replies in order, then with a 400."""

    def __init__(self, url: str, replies):
        self.url = url
        self.replies = deque(replies)
        self.sent: list[Sent] = []


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        _, name, path = self.path.split("/", 2)
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        route = self.server.routes[name]
        route.sent.append(Sent("/" + path, self.headers, body))
        answer = route.replies.popleft() if route.replies else reply(400, {})
        if callable(answer):
            answer(self)
            return
        status, data = answer
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # a followed redirect comes back as a GET, with no body

    def log_message(self, format, *args):
        pass


class Loopback(ThreadingHTTPServer):
    """An in-process HTTP server on 127.0.0.1. Each ``route`` is a path
    prefix of its own, so tests, and hypothesis examples, share one server
    without sharing replies. Handler threads are joined on close."""

    daemon_threads = False

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.routes: dict[str, Route] = {}
        self.released = threading.Event()
        self._names = itertools.count()

    def route(self, replies=()) -> Route:
        name = str(next(self._names))
        self.routes[name] = route = Route(f"{self.url}/{name}", replies)
        return route


@pytest.fixture(scope="session")
def loopback():
    """The session's loopback server. Hypothesis refuses function-scoped
    fixtures, so one server serves every test; no proxy from the
    environment is used for it."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("no_proxy", "NO_PROXY"):
            patch.setenv(name, "127.0.0.1")
        server = Loopback()
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        yield server
        server.released.set()
        server.shutdown()
        thread.join(10)
        assert not thread.is_alive()
        server.server_close()
