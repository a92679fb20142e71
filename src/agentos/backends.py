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
from typing import Callable

from .errors import BackendError, CassetteMissError, ParseError, ScriptExhaustedError
from .kernel import ToolCall

CASSETTE_MAGIC = "A1"


@dataclass
class CompletionRequest:
    model: str
    messages: list[dict[str, str]]
    tools: list | None = None  # list[ToolSchema] in direct mode, else None
    mode: str = "transformed"


@dataclass
class CompletionResponse:
    """Either assistant text or (direct mode only) a structured tool call;
    ``decode_reply`` is the rule for a reply from outside."""

    text: str | None = None
    tool_call: ToolCall | None = None


@dataclass
class RetryPolicy:
    max_attempts: int = 3
    backoff_start: float = 0.5
    backoff_factor: float = 2.0
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


def _encoded(value, start: int, stop: int) -> memoryview:
    """``_ENCODER.encode(value)[start:stop]`` as bytes, without copying the slice."""
    return memoryview(_ENCODER.encode(value).encode())[start:stop]


def _hash_messages(messages) -> "hashlib._Hash":
    """sha256 over the body up to its last message: ``{"messages":[m0,…,mk``."""
    state = hashlib.sha256(b'{"messages":')
    state.update(_encoded(messages, 0, -1))
    return state


@functools.lru_cache(maxsize=256)
def _system_hash(system: str) -> "hashlib._Hash":
    """``_hash_messages`` of a list holding only this system message; every
    Context whose agent has this system text starts from a copy of it."""
    return _hash_messages([{"role": "system", "content": system}])


class MessageMemo:
    """What ``engine.build_messages`` and ``request_digest`` keep about one
    Context between calls; ``build_messages`` makes it on first use.

    ``messages`` are the rendered messages of ``turns[:rendered]``.
    ``digests`` maps a system text to ``(sha256, n)``: a running hash of the
    request body up to and including message ``n - 1`` of a message list that
    starts with that system text.
    """

    __slots__ = ("messages", "rendered", "digests")

    def __init__(self):
        self.messages: list[dict[str, str]] = []
        self.rendered = 0
        self.digests: dict[str, tuple] = {}

    def __reduce__(self):
        return MessageMemo, ()  # a copied Context renders and hashes afresh


class MessageList(list):
    """``[system message, *memo.messages]`` as of one ``build_messages`` call.

    The list may be edited like any list; that detaches it (``memo`` becomes
    None), and only a list still attached may use the memo's digests. The
    message dicts are shared with the memo and with every later list, so
    they must not be edited in place.
    """

    __slots__ = ("memo",)

    @classmethod
    def of(cls, memo: MessageMemo, system: dict[str, str]) -> "MessageList":
        messages = cls((system,))
        list.extend(messages, memo.messages)
        messages.memo = memo
        return messages


def _detaching(method):
    def edit(self, *args, **kwargs):
        self.memo = None
        return method(self, *args, **kwargs)
    return edit


for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
              "insert", "pop", "remove", "clear", "sort", "reverse"):
    setattr(MessageList, _name, _detaching(getattr(list, _name)))
del _name


def _running_hash(messages: MessageList) -> "hashlib._Hash":
    """``_hash_messages(messages)``, extended from the hash the Context keeps
    for this system text by only the messages it has not covered yet."""
    system = messages[0]["content"]
    if not isinstance(system, str):  # only text keys the running hashes
        return _hash_messages(messages)
    digests = messages.memo.digests
    entry = digests.get(system)
    if entry is not None and entry[1] <= len(messages):
        state, covered = entry
    else:
        state, covered = _system_hash(system).copy(), 1
    if covered < len(messages):
        # ``[mi,…,mk]`` without its brackets continues ``…,m(i-1)``
        state.update(b",")
        state.update(_encoded(messages[covered:], 1, -1))
    if entry is not None and entry[1] > len(messages):
        return state  # a list older than the one hashed last: keep the longer hash
    digests[system] = (state, len(messages))
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
    if isinstance(messages, MessageList) and messages.memo is not None:
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
    def __init__(self, base_url: str, api_key: str = "", timeout: float = 60.0,
                 transport: Callable | None = None):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self._transport = transport  # test seam: (url, json, headers) -> (status, body)

    def _post(self, url: str, payload: dict, headers: dict) -> tuple[int, dict]:
        if self._transport is not None:
            return self._transport(url, payload, headers)
        import requests

        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=self.timeout)
        except requests.RequestException as err:
            raise TransientBackendError(f"transport failure: {err}") from err
        try:
            body = resp.json()
        except (ValueError, RecursionError):
            body = {}
        return resp.status_code, body

    def complete(self, request: CompletionRequest) -> CompletionResponse:
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
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        status, body = self._post(f"{self.base_url}/chat/completions", payload, headers)
        if status >= 500:
            raise TransientBackendError(f"server error {status}")
        if status >= 400:
            raise BackendError(f"request rejected with status {status}")

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
    """Call the backend, retrying transient failures with exponential backoff.

    Scripted exhaustion and cassette misses are hard errors and propagate
    immediately.
    """
    retry = retry or RetryPolicy()
    delay = retry.backoff_start
    last: Exception | None = None
    for attempt in range(retry.max_attempts):
        try:
            return backend.complete(request)
        except TransientBackendError as err:
            last = err
            if attempt + 1 < retry.max_attempts:
                retry.sleep(delay)
                delay *= retry.backoff_factor
    raise BackendError(f"backend failed after {retry.max_attempts} attempts: {last}")
