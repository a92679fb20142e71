"""The registry's record path: pinned `.def` bytes, atomic writes, and
malformed or out-of-tree entries turned into coded errors."""

import hashlib
import json
import os

import pytest

from agentos.errors import InvalidDefinitionError, NotFoundError
from agentos.forms import parse_workflow_form
from agentos.kernel import AgentDefinition
from agentos.registry import RegistryStore, ToolDefinition, ToolParam, builtin_tool

GREET_FLOW_XML = """\
<workflow>
    <name>greet_flow</name>
    <system_input><key>who</key><description>Who to greet.</description></system_input>
    <system_output><key>greeting</key><description>The greeting.</description></system_output>
    <agents>
        <agent category="existing"><name>Greeter Agent</name><description>Greets.</description></agent>
    </agents>
    <events>
        <event>
            <name>on_start</name>
            <inputs><input><key>who</key><description>Who.</description></input></inputs>
            <outputs><output><key>who</key><description>Who.</description>
                <action><type>RESULT</type></action></output></outputs>
        </event>
        <event>
            <name>greet</name>
            <inputs><input><key>who</key><description>Who.</description></input></inputs>
            <task>Greet the person.</task>
            <outputs><output><key>greeting</key><description>The greeting.</description>
                <action><type>RESULT</type></action></output></outputs>
            <listen><event>on_start</event></listen>
            <agent><name>Greeter Agent</name><model>m1</model></agent>
        </event>
    </events>
</workflow>"""

ECHO_DEF = """\
{
  "body": {
    "builtin": "echo",
    "kind": "builtin",
    "language": "python",
    "source": ""
  },
  "description": "Return the given text unchanged.",
  "format_version": 1,
  "kind": "tool",
  "name": "echo",
  "parameters": [
    {
      "description": "Text to return.",
      "name": "text",
      "required": true
    }
  ],
  "version": 1
}
"""

GREET_DEF = r"""{
  "body": {
    "builtin": "",
    "kind": "script",
    "language": "python",
    "source": "import json, sys\nprint('hi ' + json.load(sys.stdin)['who'])\n"
  },
  "description": "Say hi.",
  "format_version": 1,
  "kind": "tool",
  "name": "greet",
  "parameters": [
    {
      "description": "Name.",
      "name": "who",
      "required": true
    },
    {
      "description": "Tone.",
      "name": "tone",
      "required": false
    }
  ],
  "version": 2
}
"""

GREETER_AGENT_DEF = """\
{
  "description": "Greets.",
  "format_version": 1,
  "instructions": "Greet people.",
  "kind": "agent",
  "model": "m1",
  "name": "Greeter Agent",
  "tool_names": [
    "echo",
    "greet"
  ],
  "transfer_targets": [
    "Boss Agent"
  ],
  "version": 1
}
"""

GREET_FLOW_DEF_SHA256 = "e46ad324f2cb8be6adbcee5994f8d39e6de88302bdcefb3d13ef8fa62d6a9e7e"


@pytest.fixture
def store(tmp_path):
    return RegistryStore(tmp_path / "registry")


def greet_tool() -> ToolDefinition:
    return ToolDefinition(
        name="greet", description="Say hi.",
        parameters=[ToolParam("who", "Name."), ToolParam("tone", "Tone.", required=False)],
        body_kind="script",
        source="import json, sys\nprint('hi ' + json.load(sys.stdin)['who'])\n")


# ---------------------------------------------------------------------------
# golden bytes
# ---------------------------------------------------------------------------

def test_def_bytes_and_snapshot_keys_are_pinned(store):
    assert store.put_tool(builtin_tool("echo")) == 1
    assert store.put_tool(greet_tool()) == 1
    assert store.put_tool(greet_tool()) == 2  # the version bump
    assert store.put_agent(AgentDefinition(
        name="Greeter Agent", description="Greets.", instructions="Greet people.",
        tool_names=["echo", "greet"], transfer_targets=["Boss Agent"], model="m1")) == 1
    assert store.put_workflow(parse_workflow_form(GREET_FLOW_XML)) == 1

    snap = store.snapshot()
    assert sorted(snap) == ["agents/Greeter Agent.def", "tools/echo.def",
                            "tools/greet.def", "workflows/greet_flow.def"]
    assert snap["tools/echo.def"] == ECHO_DEF.encode()
    assert snap["tools/greet.def"] == GREET_DEF.encode()
    assert snap["agents/Greeter Agent.def"] == GREETER_AGENT_DEF.encode()
    flow = snap["workflows/greet_flow.def"]
    assert hashlib.sha256(flow).hexdigest() == GREET_FLOW_DEF_SHA256
    assert json.loads(flow)["xml"].startswith("<workflow>\n    <name>greet_flow</name>\n")
    for rel, data in snap.items():
        assert (store.root / rel).read_bytes() == data


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

def _refuse_replace(src, dst):
    raise OSError("replace refused")


def test_restore_leaves_no_temp_file_when_a_write_fails(store, monkeypatch):
    store.put_tool(builtin_tool("echo"))
    store.put_agent(AgentDefinition(name="Helper"))
    snap = store.snapshot()
    store.delete("tools", "echo")
    monkeypatch.setattr(os, "replace", _refuse_replace)
    with pytest.raises(OSError):
        store.restore(snap)
    monkeypatch.undo()
    assert sorted(p.name for p in store.root.rglob(".tmp-*")) == []
    store.restore(snap)
    assert store.snapshot() == snap


def test_commit_leaves_no_temp_file_when_a_write_fails(store, monkeypatch):
    store.put_tool(builtin_tool("echo"))
    store.put_agent(AgentDefinition(name="Helper"))
    with store.staged() as commit:
        store.delete("agents", "Helper")
        store.put_tool(builtin_tool("echo"))  # version 2
        store.put_agent(AgentDefinition(name="Later"))
        monkeypatch.setattr(os, "replace", _refuse_replace)
        with pytest.raises(OSError):
            commit()
        monkeypatch.undo()
    assert sorted(p.name for p in store.root.rglob(".tmp-*")) == []
    # the commit stopped at its first failed write: the unlink before it stands
    assert store.snapshot() == RegistryStore(store.root).snapshot()
    assert store.names("agents") == []
    assert store.record("tools", "echo")["version"] == 1


def test_put_leaves_no_temp_file_when_a_write_fails(store, monkeypatch):
    monkeypatch.setattr(os, "replace", _refuse_replace)
    with pytest.raises(OSError):
        store.put_tool(builtin_tool("echo"))
    monkeypatch.undo()
    assert sorted(p.name for p in store.root.rglob(".tmp-*")) == []
    assert store.names("tools") == []


# ---------------------------------------------------------------------------
# malformed records
# ---------------------------------------------------------------------------

def _header(kind: str, **fields) -> dict:
    """A record of ``kind`` that ``fields`` alone can make malformed: a tool
    record carries a usable body unless ``fields`` replaces it."""
    body = {"body": {"kind": "builtin", "builtin": "echo"}} if kind == "tool" else {}
    return {"format_version": 1, "kind": kind, "name": "x", "version": 1, **body, **fields}


def _without(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


MALFORMED = {
    "tools": {
        "not JSON": b"{not json",
        "not UTF-8": b"\xff\xfe{}",
        "a list": b"[1, 2]",
        "nested too deeply": b"[" * 100_000 + b"]" * 100_000,
        "no name": _without(_header("tool"), "name"),
        "no version": _without(_header("tool"), "version"),
        "text version": _header("tool", version="1"),
        "parameters not a list": _header("tool", parameters={"name": "a"}),
        "parameter not an object": _header("tool", parameters=["a"]),
        "parameter name not text": _header("tool", parameters=[{"name": 5}]),
        "body not an object": _header("tool", body="echo"),
        "body kind not text": _header("tool", body={"kind": ["builtin"]}),
        "description not text": _header("tool", description=None),
        "required not a boolean": _header("tool", parameters=[{"name": "a", "required": "no"}]),
        "parameter named twice": _header("tool", parameters=[{"name": "a"}, {"name": "a"}]),
        "another entry's name": _header("tool", name="shout"),
    },
    "agents": {
        "not JSON": b"",
        "a number": b"7",
        "no name": _without(_header("agent"), "name"),
        "no version": _without(_header("agent"), "version"),
        "tool names text": _header("agent", tool_names="echo"),
        "tool name not text": _header("agent", tool_names=[1]),
        "tool named twice": _header("agent", tool_names=["echo", "echo"]),
        "targets not a list": _header("agent", transfer_targets={"a": 1}),
        "instructions not text": _header("agent", instructions=["a"]),
        "another entry's name": _header("agent", name="B"),
    },
    "workflows": {
        "not JSON": b"nope",
        "a string": b'"x"',
        "no name": _without(_header("workflow"), "name"),
        "no version": _without(_header("workflow"), "version"),
        "xml not text": _header("workflow", xml={"workflow": []}),
        "no xml": _header("workflow"),
        "another entry's name": _header("workflow", name="greet_flow", xml=GREET_FLOW_XML),
    },
}

MALFORMED_CASES = [(kind, case) for kind, cases in MALFORMED.items() for case in cases]


def write_malformed(root, kind: str, case: str) -> None:
    data = MALFORMED[kind][case]
    if isinstance(data, dict):
        data = json.dumps(data).encode()
    (root / kind).mkdir(parents=True, exist_ok=True)
    (root / kind / "x.def").write_bytes(data)


def _readers(store, kind: str):
    if kind == "tools":
        return [lambda: store.get_tool("x"), lambda: store.record("tools", "x")["version"],
                lambda: store.put_tool(ToolDefinition(name="x", builtin="echo"))]
    if kind == "agents":
        return [lambda: store.get_agent("x"), lambda: store.record("agents", "x")["version"],
                lambda: store.put_agent(AgentDefinition(name="x"))]
    return [lambda: store.get_workflow("x"), lambda: store.record("workflows", "x")]


@pytest.mark.parametrize("kind,case", MALFORMED_CASES)
def test_malformed_def_is_an_invalid_definition(store, kind, case):
    write_malformed(store.root, kind, case)
    before = store.snapshot()
    for read in _readers(store, kind):
        with pytest.raises(InvalidDefinitionError) as err:
            read()
        assert err.value.code == "E_INVALID_DEF"
    assert store.snapshot() == before  # a put never overwrites what it cannot read
    assert store.names(kind) == ["x"]
    store.delete(kind, "x")
    assert store.names(kind) == []


def test_record_reads_one_checked_entry(store):
    store.put_tool(builtin_tool("echo"))
    record = store.record("tools", "echo")
    assert record["kind"] == "tool" and record["version"] == 1
    assert json.dumps(record, sort_keys=True, indent=2) + "\n" == ECHO_DEF
    with pytest.raises(NotFoundError):
        store.record("tools", "ghost")
    with pytest.raises(NotFoundError):
        store.delete("agents", "ghost")
    for name in ("../secret", "", " echo", "a\x00b", ".hidden"):
        with pytest.raises(InvalidDefinitionError, match="unusable tool name"):
            store.record("tools", name)


def test_a_name_the_file_system_cannot_encode_is_unusable(store):
    # a lone surrogate outside U+DC80-U+DCFF has no bytes in a file name
    for call in (lambda: store.put_agent(AgentDefinition(name="A\ud800")),
                 lambda: store.get_agent("A\ud800"),
                 lambda: store.record("agents", "A\ud800"),
                 lambda: store.delete("agents", "A\ud800")):
        with pytest.raises(InvalidDefinitionError, match="unusable agent name") as err:
            call()
        assert err.value.code == "E_INVALID_DEF"
    assert store.snapshot() == {}


def test_names_of_bytes_that_are_not_utf8_stay_reachable(store):
    # os.listdir decodes such bytes to U+DC80-U+DCFF, which encode back to them
    folder = os.fsencode(store.root / "agents")
    os.makedirs(folder)
    with open(os.path.join(folder, b"A\xff.def"), "wb") as handle:
        handle.write(json.dumps({"format_version": 1, "kind": "agent",
                                 "name": "A\udcff", "version": 1}).encode())
    assert store.names("agents") == ["A\udcff"]
    assert store.get_agent("A\udcff") == AgentDefinition(name="A\udcff")
    assert store.put_agent(AgentDefinition(name="A\udcff")) == 2
    assert os.listdir(folder) == [b"A\xff.def"]


def test_dot_files_are_not_entries(store):
    store.put_tool(builtin_tool("echo"))
    (store.root / "tools" / ".tmp-left.def").write_bytes(b"{}")
    snap = store.snapshot()
    assert store.names("tools") == ["echo"]
    assert list(snap) == ["tools/echo.def"]
    store.restore(snap)
    assert (store.root / "tools" / ".tmp-left.def").read_bytes() == b"{}"


def test_only_regular_files_are_entries(store):
    # a folder named like an entry is not one: has, names, snapshot and restore agree
    store.put_tool(builtin_tool("echo"))
    (store.root / "tools" / "x.def").mkdir()
    assert not store.has("tools", "x")
    assert store.names("tools") == ["echo"]
    assert list(store.snapshot()) == ["tools/echo.def"]
    store.restore({})
    assert store.names("tools") == []
    assert (store.root / "tools" / "x.def").is_dir()
