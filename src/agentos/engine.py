"""Tool-use engine: direct (structured) and transformed (text grammar) modes.

The transformed grammar lets models without native function calling emit
tool calls as plain text:

    <function=NAME><parameter=P>raw value</parameter>...</function>

A parameter value is raw text: anything up to the first ``</parameter>``.
Values containing the literal ``</parameter>`` are unsupported (documented
limitation). At most one call per message; the first complete call wins and
surrounding prose raises a warning flag, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .backends import (CompletionRequest, MessageList, MessageMemo, RetryPolicy,
                       backend_complete, remembered)
from .errors import EmptyInputError, ParseError
from .kernel import Context, ToolCall, ToolParam, ToolSchema, check_arguments  # re-exported
from .naming import IDENT_RE

DIRECT = "direct"
TRANSFORMED = "transformed"

_SPACE = set(" \t\n\r\v\f")  # ASCII whitespace, the only filler between parameters

_FN_OPEN = "<function="
_FN_CLOSE = "</function>"
_PARAM_OPEN = "<parameter="
_PARAM_CLOSE = "</parameter>"
_CATALOGS: dict[tuple, str] = {}  # rendered by build_messages; see backends.remembered


@dataclass
class EngineAction:
    """What the model decided this step: one tool call, or final text."""

    kind: str  # "tool_call" | "final"
    tool_call: ToolCall | None = None
    text: str = ""
    warning: str = ""


# ---------------------------------------------------------------------------
# transformed grammar
# ---------------------------------------------------------------------------

def render_tool_call(call: ToolCall) -> str:
    """Serialize a call into the transformed grammar (inverse of parse).

    Parameters are emitted in sorted key order so the rendering of a call is
    canonical; replaying a recorded call (whose argument order round-trips
    through JSON) must rebuild byte-identical conversation text.
    """
    parts = [_FN_OPEN, call.tool_name, ">"]
    for key in sorted(call.arguments):
        parts += [_PARAM_OPEN, key, ">", call.arguments[key], _PARAM_CLOSE]
    parts.append(_FN_CLOSE)
    return "".join(parts)


def render_transformed_schema(tools: list[ToolSchema]) -> str:
    """Deterministic tool catalog injected into the system prompt."""
    if not tools:
        raise EmptyInputError("cannot render an empty tool list")
    lines = [
        "You can invoke the tools listed below. To call one, reply with",
        "exactly one block of the form:",
        "<function=TOOL_NAME><parameter=PARAM_NAME>value</parameter></function>",
        "Repeat the parameter block for each parameter. Use at most one tool",
        "call per message. Reply with plain text when you are done.",
        "",
        "Available tools:",
    ]
    for schema in tools:
        lines.append(f"- {schema.name}: {schema.description}")
        for p in schema.parameters:
            flag = "required" if p.required else "optional"
            lines.append(f"    parameter {p.name} ({flag}): {p.description}")
        example = "".join(
            f"<parameter={p.name}>...</parameter>" for p in schema.parameters
        )
        lines.append(f"    usage: <function={schema.name}>{example}</function>")
    return "\n".join(lines)


def _byte_offset(text: str, index: int) -> int:
    # a lone surrogate counts as surrogatepass encodes it, as in the embedder
    return len(text[:index].encode("utf-8", "surrogatepass"))


def _read_name(text: str, start: int, kind: str):
    """Read an identifier then '>' starting at ``start``; returns (name, next)."""
    match = IDENT_RE.match(text, start)
    if match is None or not text.startswith(">", match.end()):
        raise ParseError(_byte_offset(text, start), f"malformed {kind} name", text)
    return match.group(), match.end() + 1


def scan_transformed_call(text: str):
    """Parse the first complete call in ``text``.

    Returns (call, start_index, end_index). Raises ParseError (with a UTF-8
    byte offset) if there is no opener or the grammar is violated.
    """
    start = text.find(_FN_OPEN)
    if start < 0:
        raise ParseError(0, "no function call found", text)

    name, i = _read_name(text, start + len(_FN_OPEN), "function")
    arguments: dict[str, str] = {}

    while True:
        while i < len(text) and text[i] in _SPACE:
            i += 1
        if text.startswith(_FN_CLOSE, i):
            call = ToolCall(name, arguments)
            return call, start, i + len(_FN_CLOSE)
        if text.startswith(_FN_OPEN, i):
            raise ParseError(_byte_offset(text, i), "nested function tag", text)
        if text.startswith(_PARAM_OPEN, i):
            param_at = i
            pname, i = _read_name(text, i + len(_PARAM_OPEN), "parameter")
            if pname in arguments:
                raise ParseError(_byte_offset(text, param_at),
                                 f"duplicate parameter name: {pname}", text)
            end = text.find(_PARAM_CLOSE, i)
            if end < 0:
                raise ParseError(_byte_offset(text, param_at),
                                 "unclosed parameter tag", text)
            arguments[pname] = text[i:end]
            i = end + len(_PARAM_CLOSE)
            continue
        if i >= len(text):
            raise ParseError(_byte_offset(text, start), "unclosed function tag", text)
        raise ParseError(_byte_offset(text, i), "unexpected content in function body", text)


def parse_transformed_call(text: str) -> ToolCall:
    """First complete call in ``text``; ParseError when the grammar fails."""
    return scan_transformed_call(text)[0]


# ---------------------------------------------------------------------------
# message building + next_action
# ---------------------------------------------------------------------------

def build_messages(system: str, context: Context, mode: str,
                   tools: list[ToolSchema]) -> MessageList:
    """Map the shared context onto an OpenAI-style message list.

    Renders only the turns appended since the last call on ``context``; the
    earlier ones come from its memo, as the same dicts.
    """
    system_text = system
    if mode == TRANSFORMED and tools:
        catalog = remembered(_CATALOGS, tools, render_transformed_schema)
        system_text = f"{system}\n\n{catalog}" if system else catalog
    memo, turns = context.memo, context.turns
    if memo is None or len(turns) < memo.rendered:  # first use, or history was cut:
        memo = context.memo = MessageMemo()  # start a memo the old lists do not share
    messages = memo.messages
    for turn in turns[memo.rendered:]:
        if turn.author == "user":
            messages.append({"role": "user", "content": turn.content})
        elif turn.author == "system":
            messages.append({"role": "system", "content": turn.content})
        elif turn.author.startswith("agent:"):
            if turn.tool_call is not None:
                messages.append({"role": "assistant",
                                 "content": render_tool_call(turn.tool_call)})
            else:
                messages.append({"role": "assistant", "content": turn.content})
            if turn.observation is not None:
                obs = turn.observation
                prefix = "" if obs.status == "ok" else f"ERROR {obs.error_kind}: "
                messages.append({"role": "tool", "content": prefix + obs.payload})
        else:  # tool:<name> turns, if constructed directly
            messages.append({"role": "tool", "content": turn.content})
    memo.rendered = len(turns)
    return MessageList.of(memo, {"role": "system", "content": system_text})


def next_action(context: Context, tools: list[ToolSchema], mode: str, backend,
                *, system: str = "", model: str = "",
                retry: RetryPolicy | None = None) -> EngineAction:
    """One engine step: ask the backend, normalize the reply to an action."""
    if mode not in (DIRECT, TRANSFORMED):
        raise ValueError(f"bad engine mode: {mode}")
    request = CompletionRequest(
        model=model,
        messages=build_messages(system, context, mode, tools),
        tools=list(tools) if (mode == DIRECT and tools) else None,
        mode=mode,
    )
    response = backend_complete(request, backend, retry)

    if response.tool_call is not None:
        return EngineAction("tool_call", tool_call=response.tool_call)

    text = response.text or ""
    if mode == TRANSFORMED and _FN_OPEN in text:
        call, start, end = scan_transformed_call(text)  # may raise ParseError
        warning = ""
        if text[:start].strip() or text[end:].strip():
            warning = "prose around tool call ignored"
        return EngineAction("tool_call", tool_call=call, warning=warning)
    return EngineAction("final", text=text)


@dataclass
class Engine:
    """Bundles mode, backend, default model and retry policy for callers."""

    mode: str
    backend: object
    model: str = ""
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def next_action(self, *, system: str, model: str, context: Context,
                    tools: list[ToolSchema]) -> EngineAction:
        return next_action(context, tools, self.mode, self.backend,
                           system=system, model=model or self.model, retry=self.retry)

    def complete_text(self, messages: list[dict[str, str]], model: str = "") -> str:
        """Plain text completion (no tools); used by the RAG answer loop."""
        request = CompletionRequest(model=model or self.model, messages=messages,
                                    tools=None, mode=self.mode)
        response = backend_complete(request, self.backend, self.retry)
        if response.text is None:
            return render_tool_call(response.tool_call)
        return response.text
