"""Chat-completion backends: http, scripted, and record/replay cassettes.

All backends expose ``complete(request) -> CompletionResponse``. The cassette
file format is line-delimited and documented in docs/formats.md: each record
is ``A1 <sha256-hex> <payload-byte-length> <base64(canonical-json-response)>``.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .errors import BackendError, CassetteMissError, ParseError, ScriptExhaustedError
from .kernel import ToolCall

CASSETTE_MAGIC = "A1"


@dataclass
class CompletionRequest:
    model: str
    messages: Sequence[dict[str, str]]  # a MessageList when the engine built it
    tools: list | None = None  # list[ToolSchema] in direct mode, else None
    mode: str = "transformed"


@dataclass
class CompletionResponse:
    """Either assistant text or (direct mode only) a structured tool call;
    ``decode_reply`` is the rule for a reply from outside."""

    text: str | None = None
    tool_call: ToolCall | None = None


# backend_complete's schedule: three attempts, 0.5 s and then 1 s apart
RETRY_DELAYS = (0.5, 1.0)


@dataclass
class RetryPolicy:
    sleep: Callable[[float], None] = time.sleep


class TransientBackendError(BackendError):
    """Transport failure or HTTP >= 500; eligible for retry."""


def _schema_dict(schema) -> dict:
    return {
        "name": schema.name,
        "description": schema.description,
        "parameters": [
            {"name": p.name, "description": p.description, "required": p.required}
            for p in schema.parameters
        ],
    }


# The canonical JSON of docs/formats.md (A1); json.dumps would build a new
# encoder with these settings on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _hash_messages(messages) -> "hashlib._Hash":
    """sha256 over the body up to its last message: ``{"messages":[m0,…,mk``."""
    state = hashlib.sha256(b'{"messages":')
    state.update(memoryview(_ENCODER.encode(messages).encode())[:-1])
    return state


@functools.lru_cache(maxsize=256)
def _system_hash(system: str) -> "hashlib._Hash":
    """``_hash_messages`` of a list holding only this system message; every
    Context whose agent has this system text starts from a copy of it."""
    return _hash_messages([{"role": "system", "content": system}])


class MessageMemo:
    """What ``engine.build_messages`` and ``request_digest`` keep about one
    Context between calls; ``build_messages`` makes it on first use. One
    thread steps a Context at a time (each workflow event makes its own),
    so the memo takes no lock.

    ``messages`` are the rendered messages of ``turns[:rendered]``.
    ``encoded`` holds ``,m0,m1,…`` in A1's canonical JSON for the first
    ``len(ends)`` of them, and message ``i`` ends at byte ``ends[i]``: each
    message is encoded once, and its bytes are kept as long as the Context,
    about the size of the history again.
    ``digests`` maps a system text to ``(sha256, stop)``: a running hash of
    ``{"messages":[system`` followed by ``encoded[:stop]``, as of the last
    request with that system text that was digested.
    """

    __slots__ = ("messages", "rendered", "encoded", "ends", "digests")

    def __init__(self):
        self.messages: list[dict[str, str]] = []
        self.rendered = 0
        self.encoded = bytearray()
        self.ends: list[int] = []
        self.digests: dict[str, tuple] = {}

    def __reduce__(self):
        return MessageMemo, ()  # a copied Context renders and hashes afresh


class MessageList(tuple):
    """``(system message, *memo.messages)`` as of one ``build_messages`` call.

    It cannot be edited, so its ``memo`` always covers it; ``list(messages)``
    is an editable copy. Every other copy (``copy.copy``, ``copy.deepcopy``,
    pickling, a slice) is a plain tuple. The message dicts are shared with
    the memo and with every later tuple, so they must not be edited in place.
    """

    @classmethod
    def of(cls, memo: MessageMemo, system: dict[str, str]) -> "MessageList":
        messages = cls((system, *memo.messages))
        messages.memo = memo
        return messages

    def __reduce__(self):
        return tuple, (tuple(self),)  # a copy never reads the memo


def _running_hash(messages: MessageList) -> "hashlib._Hash":
    """``_hash_messages(messages)``, extended from the hash the Context keeps
    for this system text by the kept bytes of the messages it has not covered
    yet; only messages that no request has sent before are encoded. A tuple
    older than the one hashed last is hashed from its system text again."""
    system = messages[0]["content"]
    if not isinstance(system, str):  # only text keys the running hashes
        return _hash_messages(messages)
    memo, count = messages.memo, len(messages) - 1
    encoded, ends = memo.encoded, memo.ends
    for message in memo.messages[len(ends):count]:
        encoded += b"," + _ENCODER.encode(message).encode()
        ends.append(len(encoded))
    stop = ends[count - 1] if count else 0
    entry = memo.digests.get(system)
    if entry is not None and entry[1] <= stop:
        state, start = entry
    else:
        state, start = _system_hash(system).copy(), 0
    if start < stop:
        with memoryview(encoded) as kept:  # released before the next append
            state.update(kept[start:stop])
    memo.digests[system] = (state, stop)
    return state.copy()


_TOOLS_MEMO_LIMIT = 256


def remembered(table: dict, tools, render) -> str:
    """``render(tools)``, kept in ``table`` under the fields of the tool list
    that a rendering reads: an agent sends the same tools with every request.
    ``required`` goes into the key with its type, because JSON tells ``true``
    from ``1`` and ``==`` does not."""
    key = tuple((s.name, s.description,
                 tuple((p.name, p.description, p.required, type(p.required))
                       for p in s.parameters)) for s in tools)
    try:
        text = table.get(key)
    except TypeError:  # a field that is not hashable, such as a list
        return render(tools)
    if text is None:
        text = render(tools)
        if len(table) >= _TOOLS_MEMO_LIMIT:
            table.clear()
        table[key] = text
    return text


_TOOLS_JSON: dict[tuple, str] = {}


def _tools_json(tools) -> str:
    """``_ENCODER.encode([_schema_dict(s) for s in tools])``, remembered."""
    return remembered(_TOOLS_JSON, tools,
                      lambda tools: _ENCODER.encode([_schema_dict(s) for s in tools]))


def request_digest(request: CompletionRequest) -> str:
    """Stable content hash of (model, messages, tool schemas, mode).

    It is sha256 over ``json.dumps(body, sort_keys=True, separators=(",", ":"))``.
    Sorted keys put ``messages`` first, so the hash of the messages can be
    carried from one request of a Context to the next and finished with the
    rest of the body.
    """
    messages = request.messages
    if isinstance(messages, MessageList):
        state = _running_hash(messages)
    else:
        state = _hash_messages(messages)
    tools = _tools_json(request.tools) if request.tools else "null"
    state.update(f'],"mode":{_ENCODER.encode(request.mode)},"model":'
                 f'{_ENCODER.encode(request.model)},"tools":{tools}}}'.encode())
    return state.hexdigest()


def string_arguments(raw: str) -> dict[str, str]:
    """A JSON object text's members, each value a string or its JSON text.
    Blank text is no arguments; ValueError when it is not a JSON object."""
    if not raw.strip():
        return {}
    data = json.loads(raw)
    if not isinstance(data, dict):
        raise ValueError("arguments must be a JSON object")
    return {k: v if isinstance(v, str) else json.dumps(v) for k, v in data.items()}


def decode_reply(body) -> CompletionResponse:
    """The one reader of a model reply, an A1 payload (docs/formats.md):
    ``{"text": str}`` or ``{"tool_call": {"name": str, "arguments": {str:
    str}}}``, the other key null or absent. Any other shape is a BackendError.
    A call whose name or keys break the identifier grammar is a ParseError
    whose text is the reply's canonical JSON, for a cassette to record."""
    if isinstance(body, dict):
        text, call = body.get("text"), body.get("tool_call")
        if call is None and isinstance(text, str):
            return CompletionResponse(text=text)
        if (text is None and isinstance(call, dict) and isinstance(call.get("name"), str)
                and isinstance(call.get("arguments"), dict)
                and all(isinstance(v, str) for v in call["arguments"].values())):
            try:
                return CompletionResponse(tool_call=ToolCall(call["name"], call["arguments"]))
            except ValueError as err:  # ToolCall's own identifier check
                raise ParseError(0, str(err), _ENCODER.encode({"text": None, "tool_call": call}))
    raise BackendError("malformed reply: not a text or a tool call with string arguments")


# ---------------------------------------------------------------------------
# scripted
# ---------------------------------------------------------------------------

class ScriptedBackend:
    """Pops pre-authored steps in order; thread-safe, single pass.

    A step is a literal final text, a structured ToolCall, or a
    deterministic callable (request -> text or ToolCall).
    """

    def __init__(self, steps):
        self._steps = deque(steps)
        self._lock = threading.Lock()
        self.calls = 0

    def __len__(self) -> int:
        return len(self._steps)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        with self._lock:
            if not self._steps:
                raise ScriptExhaustedError("scripted backend has no steps left")
            step = self._steps.popleft()
            self.calls += 1
        if callable(step) and not isinstance(step, ToolCall):
            step = step(request)
        if isinstance(step, ToolCall):
            return CompletionResponse(tool_call=step)
        return CompletionResponse(text=str(step))


# ---------------------------------------------------------------------------
# http (OpenAI-compatible chat completions)
# ---------------------------------------------------------------------------

class HttpBackend:
    """Posts to ``<base_url>/chat/completions``; docs/formats.md "HTTP"."""

    def __init__(self, base_url: str, api_key: str = "", timeout: float = 60.0):
        scheme, sep, _ = base_url.partition("://")
        if not sep or scheme.lower() not in ("http", "https"):
            raise BackendError("the API base URL must start with http:// or https://")
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        import http.client
        import urllib.request  # the network stack loads with the first POST only

        payload: dict = {"model": request.model, "messages": request.messages}
        if request.mode == "direct" and request.tools:
            payload["tools"] = [{
                "type": "function",
                "function": {
                    "name": d["name"],
                    "description": d["description"],
                    "parameters": {
                        "type": "object",
                        "properties": {p["name"]: {"type": "string",
                                                   "description": p["description"]}
                                       for p in d["parameters"]},
                        "required": [p["name"] for p in d["parameters"] if p["required"]],
                    },
                },
            } for d in map(_schema_dict, request.tools)]
        headers = {"Content-Type": "application/json", "User-Agent": f"agentos/{__version__}"}
        post = urllib.request.Request(f"{self.base_url}/chat/completions",
                                      json.dumps(payload, allow_nan=False).encode(), headers)
        if self.api_key:  # unredirected: a redirect never carries the key on
            post.add_unredirected_header("Authorization", f"Bearer {self.api_key}")

        try:
            try:
                response = urllib.request.urlopen(post, timeout=self.timeout)
            except urllib.request.HTTPError as err:  # a status outside 2xx
                response = err
            with response:
                status, raw = response.status, response.read()
        except (ValueError, http.client.InvalidURL):  # a control character, say
            raise BackendError("request cannot be sent: the base URL or the API key "
                               "holds a character HTTP does not allow") from None
        except (OSError, http.client.HTTPException) as err:
            raise TransientBackendError(f"transport failure: {err}") from err
        if status >= 500:
            raise TransientBackendError(f"server error {status}")
        if status >= 300:
            raise BackendError(f"request rejected with status {status}")

        try:
            body = json.loads(raw)
        except (ValueError, RecursionError):
            body = {}
        try:  # the first choice's message, mapped onto the reply shape
            message = body["choices"][0]["message"]
            calls = message.get("tool_calls")
            if calls:
                fn = calls[0]["function"]
                reply = {"tool_call": {"name": fn["name"],
                                       "arguments": string_arguments(fn["arguments"])}}
            else:
                reply = {"text": message.get("content") or ""}
        except (LookupError, TypeError, AttributeError, ValueError, RecursionError) as err:
            raise BackendError(f"malformed completion payload: {err!r}") from None
        return decode_reply(reply)


# ---------------------------------------------------------------------------
# cassette
# ---------------------------------------------------------------------------

class CassetteBackend:
    """Record/replay by request digest.

    Replay consumes records per digest in file order, so a request that
    recurs byte-identically (loop retries) replays its distinct responses
    in the order they were recorded.
    """

    def __init__(self, path: str | Path, mode: str, inner=None):
        if mode not in ("record", "replay"):
            raise ValueError(f"bad cassette mode: {mode}")
        self.path = Path(path)
        self.mode = mode
        self.inner = inner
        self._lock = threading.Lock()
        self._queues: dict[str, deque] = {}
        if mode == "replay":
            self._load()

    def _load(self) -> None:
        try:
            lines = self.path.read_bytes().splitlines()
        except OSError as err:
            raise CassetteMissError(f"cannot read cassette: {err}") from None
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                magic, digest, length, blob = line.decode("ascii").split(" ", 3)
                if magic != CASSETTE_MAGIC or int(length) != len(blob):
                    raise ValueError
                body = json.loads(base64.b64decode(blob).decode("utf-8"))
            except (ValueError, IndexError, RecursionError):
                raise BackendError(f"corrupt cassette record at line {lineno}")
            self._queues.setdefault(digest, deque()).append(body)

    def _append(self, digest: str, payload: str) -> None:
        blob = base64.b64encode(payload.encode("utf-8")).decode("ascii")
        record = f"{CASSETTE_MAGIC} {digest} {len(blob.encode('utf-8'))} {blob}\n"
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(record)

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        digest = request_digest(request)
        if self.mode == "replay":
            with self._lock:
                queue = self._queues.get(digest)
                if not queue:
                    raise CassetteMissError(f"no recorded response for digest {digest[:12]}")
                body = queue.popleft()
            return decode_reply(body)
        if self.inner is None:
            raise BackendError("record mode requires an inner backend")
        try:
            response = self.inner.complete(request)
        except ParseError as err:  # decode_reply's: the text is the reply's payload
            self._append(digest, err.text)
            raise
        call = response.tool_call
        if call is not None:
            call = {"name": call.tool_name, "arguments": call.arguments}
        self._append(digest, _ENCODER.encode({"text": response.text, "tool_call": call}))
        return response


# ---------------------------------------------------------------------------
# retry wrapper
# ---------------------------------------------------------------------------

def backend_complete(request: CompletionRequest, backend,
                     retry: RetryPolicy | None = None) -> CompletionResponse:
    """Call the backend, retrying transient failures after ``RETRY_DELAYS``.

    Scripted exhaustion and cassette misses are hard errors and propagate
    immediately.
    """
    sleep = (retry or RetryPolicy()).sleep
    for delay in (*RETRY_DELAYS, None):
        try:
            return backend.complete(request)
        except TransientBackendError as err:
            last = err
        if delay is not None:
            sleep(delay)
    raise BackendError(f"backend failed after {len(RETRY_DELAYS) + 1} attempts: {last}")
