"""Tool-call grammar: rendering, parsing, offsets, and engine actions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentos.backends import ScriptedBackend
from agentos.engine import (
    DIRECT,
    TRANSFORMED,
    Engine,
    ToolParam,
    ToolSchema,
    next_action,
    parse_transformed_call,
    render_tool_call,
    render_transformed_schema,
    scan_transformed_call,
)
from agentos.errors import EmptyInputError, ParseError
from agentos.kernel import Context, ToolCall

_IDENT_START = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_IDENT_CHARS = _IDENT_START + "0123456789"
# Raw values may hold anything except the parameter closer, including markup
# look-alikes, newlines, and multibyte text.
_VALUE_CHARS = _IDENT_CHARS + " <>/=\n\t{}[]()\"'.,;:!?-+*&%$#@^|\\~`éß日本語🙂"


def random_call(rng: random.Random) -> ToolCall:
    name = rng.choice(_IDENT_START) + "".join(
        rng.choices(_IDENT_CHARS, k=rng.randint(0, 12)))
    arguments = {}
    for _ in range(rng.randint(0, 4)):
        key = rng.choice(_IDENT_START) + "".join(
            rng.choices(_IDENT_CHARS, k=rng.randint(0, 8)))
        value = "".join(rng.choices(_VALUE_CHARS, k=rng.randint(0, 40)))
        value = value.replace("</parameter>", "<par>")
        arguments[key] = value
    return ToolCall(name, arguments)


def assert_round_trips(count: int, seed: int = 20260816) -> None:
    rng = random.Random(seed)
    for _ in range(count):
        call = random_call(rng)
        assert parse_transformed_call(render_tool_call(call)) == call


def byte_index(text: str, marker: str, occurrence: int = 1) -> int:
    """Independent offset oracle: locate the marker in the encoded bytes."""
    data = text.encode("utf-8")
    needle = marker.encode("utf-8")
    at = -1
    for _ in range(occurrence):
        at = data.index(needle, at + 1)
    return at


def test_render_shape():
    call = ToolCall("lookup", {"a": "1", "b": "x y"})
    assert render_tool_call(call) == (
        "<function=lookup><parameter=a>1</parameter>"
        "<parameter=b>x y</parameter></function>")


def test_round_trip_randomized():
    assert_round_trips(2000)


def test_value_may_contain_function_markup():
    call = ToolCall("a", {"x": "see <function=inner> and </function> here"})
    assert parse_transformed_call(render_tool_call(call)) == call


def test_first_complete_call_wins():
    first = render_tool_call(ToolCall("one", {"k": "1"}))
    second = render_tool_call(ToolCall("two", {"k": "2"}))
    call, start, end = scan_transformed_call(f"lead {first} mid {second} tail")
    assert call.tool_name == "one"
    assert start == len("lead ")
    assert end == start + len(first)


def test_whitespace_between_parameters():
    text = "<function=a>\n  <parameter=x>1</parameter>\n</function>"
    assert parse_transformed_call(text) == ToolCall("a", {"x": "1"})


@pytest.mark.parametrize("text,filler", [
    ("<function=a> <parameter=x>日本</parameter>\u3000</function>", "\u3000"),
    ("<function=a>\u3000<parameter=x>1</parameter></function>", "\u3000"),
    ("<function=a><parameter=x>é</parameter>\x1c</function>", "\x1c"),  # isspace(), not ASCII
])
def test_only_ascii_whitespace_between_parameters(text, filler):
    with pytest.raises(ParseError) as err:
        parse_transformed_call(text)
    assert err.value.reason == "unexpected content in function body"
    assert err.value.offset == len(text[:text.index(filler)].encode("utf-8"))


def test_no_call_found():
    with pytest.raises(ParseError) as err:
        parse_transformed_call("just words")
    assert err.value.code == "E_PARSE"
    assert err.value.offset == 0


@pytest.mark.parametrize("prefix", ["", "héllo 日本 "])
def test_malformed_function_name(prefix):
    text = prefix + "<function=9bad><parameter=x>1</parameter></function>"
    with pytest.raises(ParseError) as err:
        scan_transformed_call(text)
    # offset points at the first character of the (bad) name
    assert err.value.offset == byte_index(text, "<function=") + len("<function=")
    assert "function name" in err.value.reason


@pytest.mark.parametrize("prefix", ["", "héllo 日本 "])
def test_nested_function(prefix):
    text = prefix + "<function=a><function=b></function></function>"
    with pytest.raises(ParseError) as err:
        scan_transformed_call(text)
    assert err.value.offset == byte_index(text, "<function=", occurrence=2)
    assert "nested" in err.value.reason


def test_duplicate_parameter():
    text = ("<function=a><parameter=x>1</parameter>"
            "<parameter=x>2</parameter></function>")
    with pytest.raises(ParseError) as err:
        scan_transformed_call(text)
    assert err.value.offset == byte_index(text, "<parameter=", occurrence=2)
    assert "duplicate parameter" in err.value.reason


@pytest.mark.parametrize("prefix", ["", "∑ "])
def test_unclosed_parameter(prefix):
    text = prefix + "<function=a><parameter=x>abc</function>"
    with pytest.raises(ParseError) as err:
        scan_transformed_call(text)
    assert err.value.offset == byte_index(text, "<parameter=")
    assert "unclosed parameter" in err.value.reason


def test_unclosed_function():
    text = "<function=a><parameter=x>1</parameter>  "
    with pytest.raises(ParseError) as err:
        scan_transformed_call(text)
    assert err.value.offset == byte_index(text, "<function=")
    assert "unclosed function" in err.value.reason


def test_unexpected_content_in_body():
    text = "<function=a>junk<parameter=x>1</parameter></function>"
    with pytest.raises(ParseError) as err:
        scan_transformed_call(text)
    assert err.value.offset == byte_index(text, "junk")
    assert "unexpected content" in err.value.reason


def test_malformed_parameter_name():
    text = "<function=a><parameter=>v</parameter></function>"
    with pytest.raises(ParseError) as err:
        scan_transformed_call(text)
    assert err.value.offset == byte_index(text, "<parameter=") + len("<parameter=")
    assert "parameter name" in err.value.reason


# ---------------------------------------------------------------------------
# properties: scan and parse invert render
# ---------------------------------------------------------------------------

_IDENT = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_MARKUP = ["<function=", "</function>", "<parameter=", "</parameter", "<", ">", "=", "/"]
# any text but the parameter closer, with the grammar's own markup over-represented
_VALUE = (st.text(max_size=30) | st.lists(st.sampled_from(_MARKUP + ["x", " ", "\n", "é", "日"]),
                                          max_size=10).map("".join)
          ).filter(lambda value: "</parameter>" not in value)
_CALL = st.builds(ToolCall, _IDENT, st.dictionaries(_IDENT, _VALUE, max_size=4))
# text before a call may hold anything but an opener; text after it anything
_PROSE = (st.text(max_size=30) | st.lists(st.sampled_from(_MARKUP + ["a", " "]),
                                          max_size=8).map("".join))
_LEAD = _PROSE.filter(lambda text: "<function=" not in text)


@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(call=_CALL, lead=_LEAD, tail=_PROSE)
def test_scan_finds_a_rendered_call_inside_prose(call, lead, tail):
    rendered = render_tool_call(call)
    text = lead + rendered + tail
    assert scan_transformed_call(text) == (call, len(lead), len(lead) + len(rendered))
    assert parse_transformed_call(text) == call
    assert render_tool_call(parse_transformed_call(text)) == rendered


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(call=_CALL, data=st.data())
def test_parameter_order_and_whitespace_leave_the_call_unchanged(call, data):
    keys = data.draw(st.permutations(sorted(call.arguments)))
    gaps = data.draw(st.lists(st.text(" \t\r\n", max_size=3),
                              min_size=len(keys) + 1, max_size=len(keys) + 1))
    text = f"<function={call.tool_name}>" + "".join(
        f"{gap}<parameter={key}>{call.arguments[key]}</parameter>"
        for gap, key in zip(gaps, keys)) + gaps[-1] + "</function>"
    assert parse_transformed_call(text) == call
    assert render_tool_call(parse_transformed_call(text)) == render_tool_call(call)


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(call=_CALL, lead=_LEAD, data=st.data())
def test_a_cut_call_is_a_parse_error(call, lead, data):
    rendered = render_tool_call(call)
    cut = data.draw(st.integers(0, len(rendered) - 1))
    with pytest.raises(ParseError):
        parse_transformed_call(lead + rendered[:cut])


# ---------------------------------------------------------------------------
# schema catalog + engine actions
# ---------------------------------------------------------------------------

def _schemas():
    return [ToolSchema("lookup", "Find a fact.",
                       [ToolParam("query", "Search text."),
                        ToolParam("limit", "Max results.", required=False)])]


def test_schema_catalog_renders_usage():
    catalog = render_transformed_schema(_schemas())
    assert "- lookup: Find a fact." in catalog
    assert "parameter query (required): Search text." in catalog
    assert "parameter limit (optional): Max results." in catalog
    assert "<function=lookup>" in catalog


def test_schema_catalog_rejects_empty():
    with pytest.raises(EmptyInputError):
        render_transformed_schema([])


def test_direct_mode_passes_structured_call_through():
    call = ToolCall("click", {"bid": "12"})
    backend = ScriptedBackend([call])
    action = next_action(Context(), _schemas(), DIRECT, backend, system="s")
    assert action.kind == "tool_call"
    assert action.tool_call == call


def test_transformed_mode_parses_text_call_and_warns_on_prose():
    text = "Let me search. " + render_tool_call(ToolCall("lookup", {"query": "x"}))
    backend = ScriptedBackend([text])
    action = next_action(Context(), _schemas(), TRANSFORMED, backend)
    assert action.kind == "tool_call"
    assert action.tool_call == ToolCall("lookup", {"query": "x"})
    assert action.warning == "prose around tool call ignored"


def test_plain_text_is_final():
    backend = ScriptedBackend(["the answer is 4"])
    action = next_action(Context(), _schemas(), TRANSFORMED, backend)
    assert action.kind == "final"
    assert action.text == "the answer is 4"


def test_engine_complete_text():
    engine = Engine(mode=TRANSFORMED, backend=ScriptedBackend(["hi"]))
    assert engine.complete_text([{"role": "user", "content": "hello"}]) == "hi"


def test_engine_complete_text_renders_a_tool_call_reply():
    call = ToolCall("lookup", {"query": "x"})
    engine = Engine(mode=DIRECT, backend=ScriptedBackend([call]))
    assert engine.complete_text([{"role": "user", "content": "hello"}]) == render_tool_call(call)


def test_a_bad_engine_mode_is_refused_before_the_backend():
    backend = ScriptedBackend(["never read"])
    with pytest.raises(ValueError, match="bad engine mode: chatty$"):
        next_action(Context(), _schemas(), "chatty", backend)
    assert backend.calls == 0
