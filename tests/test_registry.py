"""Registry persistence, builtins, script execution policy, and the suite."""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from agentos import registry
from agentos.backends import ScriptedBackend
from agentos.engine import Engine
from agentos.errors import (
    E_ARGS,
    E_IO,
    E_RUNNER_REFUSED,
    E_SCRIPT,
    E_UNKNOWN_TOOL,
    InvalidDefinitionError,
    InvalidFormError,
    NotFoundError,
)
from agentos.forms import parse_workflow_form
from agentos.kernel import AgentDefinition, ToolCall
from agentos.registry import (
    BUILTIN_TOOLS,
    SCRIPT_OUTPUT_LIMIT,
    RegistryStore,
    RegistryToolSuite,
    SubprocessScriptRunner,
    ToolDefinition,
    ToolParam,
    builtin_tool,
    make_registry_resolver,
)

from conftest import read_fixture


@pytest.fixture
def store(tmp_path):
    return RegistryStore(tmp_path / "registry")


def echo_tool() -> ToolDefinition:
    return builtin_tool("echo")


# ---------------------------------------------------------------------------
# store basics
# ---------------------------------------------------------------------------

def test_tool_roundtrip_and_versioning(store):
    tool = ToolDefinition(
        name="greeter", description="Say hi.",
        parameters=[ToolParam("who", "Name.", required=True),
                    ToolParam("tone", "Optional tone.", required=False)],
        body_kind="script", source="print('hi')")
    assert store.put_tool(tool) == 1
    back = store.get_tool("greeter")
    assert back == tool
    assert store.put_tool(tool) == 2
    assert store.record("tools", "greeter")["version"] == 2
    assert store.names("tools") == ["greeter"]
    store.delete("tools", "greeter")
    assert store.names("tools") == []
    with pytest.raises(NotFoundError):
        store.delete("tools", "greeter")


def test_agent_roundtrip(store):
    agent = AgentDefinition(name="Helper Agent", description="d",
                            instructions="do things", tool_names=["echo"],
                            transfer_targets=["Boss"], model="m1")
    assert store.put_agent(agent) == 1
    assert store.get_agent("Helper Agent") == agent
    assert store.put_agent(agent) == 2
    assert store.record("agents", "Helper Agent")["version"] == 2
    assert store.names("agents") == ["Helper Agent"]


def test_workflow_create_only(store):
    form = parse_workflow_form(read_fixture("math_voting_workflow.xml"))
    assert store.put_workflow(form) == 1
    assert store.names("workflows") == ["parallel_math_solver_workflow"]
    back = store.get_workflow("parallel_math_solver_workflow")
    assert [e.name for e in back.events] == [e.name for e in form.events]
    with pytest.raises(InvalidDefinitionError):
        store.put_workflow(form)


def test_workflow_with_an_unusable_name_is_refused_before_validation(store):
    form = parse_workflow_form(read_fixture("math_voting_workflow.xml"))
    for name in ("a/b", ".w", "w\ud800"):
        with pytest.raises(InvalidDefinitionError, match="unusable workflow name") as err:
            store.put_workflow(replace(form, name=name))
        assert err.value.code == "E_INVALID_DEF"
    assert store.snapshot() == {}


def test_workflow_validation_gate(store):
    form = parse_workflow_form(read_fixture("wiki_article_workflow.xml"))
    # the wiki form references an existing agent the registry lacks
    with pytest.raises(InvalidFormError) as err:
        store.put_workflow(form)
    assert any(d.code == "V8" for d in err.value.diagnostics)
    store.put_agent(AgentDefinition(name="Web Surfer Agent"))
    assert store.put_workflow(form) == 1


def test_def_file_layout(store):
    store.put_tool(echo_tool())
    path = store.root / "tools" / "echo.def"
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["format_version"] == 1
    assert record["kind"] == "tool"
    assert record["version"] == 1
    assert record["body"]["builtin"] == "echo"


def test_path_hygiene(store):
    for name in ("", "  padded  ", "a/b", "a\\b", ".hidden", "nul\x00byte"):
        with pytest.raises(InvalidDefinitionError):
            store.delete("tools", name)


def test_kind_confusion_rejected(store):
    store.put_tool(echo_tool())
    bad = store.root / "agents" / "echo.def"
    bad.parent.mkdir()
    bad.write_bytes((store.root / "tools" / "echo.def").read_bytes())
    with pytest.raises(InvalidDefinitionError):
        store.get_agent("echo")


def test_snapshot_restore_byte_exact(store):
    store.put_tool(echo_tool())
    store.put_agent(AgentDefinition(name="Keeper"))
    snap = store.snapshot()
    assert set(snap) == {"tools/echo.def", "agents/Keeper.def"}

    store.put_tool(builtin_tool("arithmetic_eval"))  # extra file
    store.put_agent(AgentDefinition(name="Keeper", description="mutated"))
    store.delete("tools", "echo")

    store.restore(snap)
    assert store.snapshot() == snap
    assert store.get_agent("Keeper").description == ""
    assert store.names("tools") == ["echo"]


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def test_builtin_names_in_allowlist_order():
    # bench/assembly.py draws from this tuple, so its order is part of a seed
    assert BUILTIN_TOOLS == ("echo", "read_text_file", "write_text_file",
                             "list_directory", "arithmetic_eval")


def test_builtin_allowlist_complete():
    for name in BUILTIN_TOOLS:
        definition = builtin_tool(name)
        assert definition.builtin == name
    with pytest.raises(InvalidDefinitionError):
        builtin_tool("spawn_process")


@pytest.fixture
def suite(store, tmp_path):
    for name in BUILTIN_TOOLS:
        store.put_tool(builtin_tool(name))
    return RegistryToolSuite(store, workdir=tmp_path / "work")


def test_builtin_echo(suite):
    assert suite.run(ToolCall("echo", {"text": "hello"})).payload == "hello"


def test_builtin_file_cycle(suite):
    write = suite.run(ToolCall("write_text_file",
                               {"path": "notes/a.txt", "content": "alpha"}))
    assert write.status == "ok"
    read = suite.run(ToolCall("read_text_file", {"path": "notes/a.txt"}))
    assert read.payload == "alpha"
    listing = suite.run(ToolCall("list_directory", {"path": "notes"}))
    assert listing.payload == "a.txt"
    top = suite.run(ToolCall("list_directory", {}))
    assert top.payload == "notes/"


def test_builtin_confinement(suite, tmp_path):
    # real paths to a real file outside the working directory: a refusal is not a missing file
    (tmp_path / "work" / "notes").mkdir(parents=True)
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "secret.txt").write_text("secret", encoding="utf-8")
    calls = [("read_text_file", {"path": "/etc/passwd"})]
    for up in ("..", "notes/../.."):
        calls += [
            ("read_text_file", {"path": f"{up}/outside/secret.txt"}),
            ("write_text_file", {"path": f"{up}/outside/secret.txt", "content": "overwritten"}),
            ("write_text_file", {"path": f"{up}/outside/planted.txt", "content": "x"}),
            ("list_directory", {"path": f"{up}/outside"}),
        ]
    for tool, args in calls:
        result = suite.run(ToolCall(tool, args))
        assert (result.status, result.error_kind) == ("error", E_IO), (tool, args)
        assert "escapes the working directory" in result.payload
    assert sorted(p.name for p in outside.iterdir()) == ["secret.txt"]
    assert (outside / "secret.txt").read_bytes() == b"secret"


def test_builtin_refuses_symlinks_out_of_the_workdir(suite, tmp_path):
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "secret.txt").write_text("secret", encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    (work / "door").symlink_to(outside, target_is_directory=True)
    (work / "secret.txt").symlink_to(outside / "secret.txt")
    calls = [
        ("read_text_file", {"path": "door/secret.txt"}),
        ("read_text_file", {"path": "secret.txt"}),
        ("write_text_file", {"path": "door/planted.txt", "content": "x"}),
        ("write_text_file", {"path": "secret.txt", "content": "overwritten"}),
        ("list_directory", {"path": "door"}),
    ]
    for tool, args in calls:
        result = suite.run(ToolCall(tool, args))
        assert (result.status, result.error_kind) == ("error", E_IO), (tool, args)
        assert "escapes the working directory" in result.payload
    assert sorted(p.name for p in outside.iterdir()) == ["secret.txt"]
    assert (outside / "secret.txt").read_text(encoding="utf-8") == "secret"


@pytest.mark.parametrize("tool,args", [
    ("read_text_file", {"path": "a\x00b"}),
    ("write_text_file", {"path": "a\x00b", "content": "x"}),
    ("list_directory", {"path": "a\x00b"}),
    ("write_text_file", {"path": "lone.txt", "content": "half \ud800 a pair"}),
])
def test_file_builtins_turn_unusable_paths_and_text_into_io_errors(suite, tmp_path, tool, args):
    (tmp_path / "work").mkdir()
    result = suite.run(ToolCall(tool, args))
    assert (result.status, result.error_kind) == ("error", E_IO)
    assert list((tmp_path / "work").iterdir()) == []  # no empty file left behind


@pytest.mark.parametrize("tool,args", [
    ("read_text_file", {"path": "a.txt"}),
    ("write_text_file", {"path": "a.txt", "content": "x"}),
    ("list_directory", {}),
])
def test_file_builtins_without_a_working_directory(store, tmp_path, monkeypatch, tool, args):
    store.put_tool(builtin_tool(tool))
    monkeypatch.chdir(tmp_path)
    result = RegistryToolSuite(store).run(ToolCall(tool, args))
    assert (result.status, result.error_kind, result.payload) == (
        "error", E_IO, "no working directory configured")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["registry"]


def test_relative_workdir_is_resolved_when_the_suite_is_built(store, tmp_path, monkeypatch):
    store.put_tool(builtin_tool("write_text_file"))
    monkeypatch.chdir(tmp_path)
    suite = RegistryToolSuite(store, workdir="work")
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    result = suite.run(ToolCall("write_text_file", {"path": "a.txt", "content": "x"}))
    assert result.status == "ok"
    assert (tmp_path / "work" / "a.txt").read_text(encoding="utf-8") == "x"
    assert list(elsewhere.iterdir()) == []


def test_builtin_arithmetic(suite):
    cases = {"(2+3)*4": "20", "2**10": "1024", "7//2": "3", "-5 % 3": "1",
             "1/4": "0.25", "+8": "8"}
    for expression, expected in cases.items():
        result = suite.run(ToolCall("arithmetic_eval", {"expression": expression}))
        assert (result.status, result.payload) == ("ok", expected), expression
    for expression in ("__import__('os')", "x + 1", "1/0", "2**100000", "()"):
        result = suite.run(ToolCall("arithmetic_eval", {"expression": expression}))
        assert result.status == "error", expression
        assert result.error_kind == E_ARGS


def test_builtin_arithmetic_bounds_result_size(suite):
    # nested powers pass the per-node exponent guard; the result size does not
    for expression in ("((2**64)**64)**64", "(10**64)**64 * 10**64",
                       "-" * 100_000 + "1", "1" + "+1" * 100_000):
        result = suite.run(ToolCall("arithmetic_eval", {"expression": expression}))
        assert (result.status, result.error_kind) == ("error", E_ARGS), expression[:20]
    big = suite.run(ToolCall("arithmetic_eval", {"expression": "(2**64)**64"}))
    assert (big.status, big.payload) == ("ok", str(2 ** 4096))


# ---------------------------------------------------------------------------
# suite argument checking and policy
# ---------------------------------------------------------------------------

def test_suite_argument_checks(suite):
    missing = suite.run(ToolCall("echo", {}))
    assert (missing.status, missing.error_kind) == ("error", E_ARGS)
    extra = suite.run(ToolCall("echo", {"text": "x", "bogus": "y"}))
    assert (extra.status, extra.error_kind) == ("error", E_ARGS)
    unknown = suite.run(ToolCall("never_registered", {}))
    assert unknown.error_kind == E_UNKNOWN_TOOL


def test_suite_schema(suite):
    schema = suite.schema("write_text_file")
    assert [p.name for p in schema.parameters] == ["path", "content"]
    assert [p.required for p in schema.parameters] == [True, False]
    with pytest.raises(NotFoundError):
        suite.schema("never_registered")


def test_script_without_runner_refused(store, tmp_path):
    store.put_tool(ToolDefinition(name="scripty", body_kind="script",
                                  source="print('x')"))
    suite = RegistryToolSuite(store, workdir=tmp_path)
    result = suite.run(ToolCall("scripty", {}))
    assert (result.status, result.error_kind) == ("error", E_RUNNER_REFUSED)


def test_script_runner_roundtrip(store, tmp_path):
    source = (
        "import json, sys\n"
        "args = json.load(sys.stdin)\n"
        "print('doubled: ' + args['word'] * 2)\n"
    )
    store.put_tool(ToolDefinition(
        name="doubler", parameters=[ToolParam("word", "w")],
        body_kind="script", source=source))
    workdir = tmp_path / "scratch"
    suite = RegistryToolSuite(store, runner=SubprocessScriptRunner(workdir),
                              workdir=workdir)
    result = suite.run(ToolCall("doubler", {"word": "ab"}))
    assert (result.status, result.payload) == ("ok", "doubled: abab")
    # the temporary script file is cleaned up
    assert list(workdir.glob("*.py")) == []


def test_script_runner_concurrent_runs_of_one_tool(store, tmp_path):
    # every run writes its own script file, so no run deletes another's
    store.put_tool(ToolDefinition(
        name="shout", parameters=[ToolParam("word", "w")], body_kind="script",
        source="import json, sys\nprint(json.load(sys.stdin)['word'].upper())\n"))
    workdir = tmp_path / "scratch"
    suite = RegistryToolSuite(store, runner=SubprocessScriptRunner(workdir),
                              workdir=workdir)
    words = [f"word{i}" for i in range(8)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda w: suite.run(ToolCall("shout", {"word": w})),
                                words))
    assert [(r.status, r.payload) for r in results] == [
        ("ok", w.upper()) for w in words]
    assert list(workdir.iterdir()) == []


def test_script_runner_relative_workdir(tmp_path, monkeypatch):
    # the script path must not be resolved a second time against the cwd
    monkeypatch.chdir(tmp_path)
    tool = ToolDefinition(name="hello", body_kind="script", source="print('hi')")
    result = SubprocessScriptRunner("scratch").run(tool, {})
    assert (result.status, result.payload) == ("ok", "hi")


def test_script_runner_failure_modes(store, tmp_path):
    store.put_tool(ToolDefinition(name="exploder", body_kind="script",
                                  source="raise RuntimeError('kaboom')"))
    store.put_tool(ToolDefinition(name="sleeper", body_kind="script",
                                  source="import time\ntime.sleep(5)"))
    runner = SubprocessScriptRunner(tmp_path, timeout=1.0)
    suite = RegistryToolSuite(store, runner=runner, workdir=tmp_path)
    boom = suite.run(ToolCall("exploder", {}))
    assert (boom.status, boom.error_kind) == ("error", E_SCRIPT)
    assert "kaboom" in boom.payload
    slow = suite.run(ToolCall("sleeper", {}))
    assert slow.error_kind == E_SCRIPT
    assert "timed out" in slow.payload


def test_script_runner_output_that_is_not_utf8(store, tmp_path):
    store.put_tool(ToolDefinition(name="garbler", body_kind="script",
                                  source="import sys\nsys.stdout.buffer.write(bytes([255]))"))
    suite = RegistryToolSuite(store, runner=SubprocessScriptRunner(tmp_path / "work"),
                              workdir=tmp_path / "work")
    result = suite.run(ToolCall("garbler", {}))
    assert (result.status, result.error_kind) == ("error", E_SCRIPT)
    assert "not UTF-8" in result.payload
    assert list((tmp_path / "work").iterdir()) == []


def run_writer(tmp_path, source: str, monkeypatch):
    """Run a script tool; returns its result and the Popen it ran under."""
    started, real_popen = [], registry.subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]
    monkeypatch.setattr(registry.subprocess, "Popen", popen)
    tool = ToolDefinition(name="writer", body_kind="script", source=source)
    result = SubprocessScriptRunner(tmp_path / "work").run(tool, {})
    return result, started[0]


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_script_runner_output_at_the_limit(tmp_path, monkeypatch, stream):
    exit_code = "" if stream == "stdout" else "\nsys.exit(1)"
    result, proc = run_writer(tmp_path, f"import sys\nsys.{stream}.write('x' * "
                                        f"{SCRIPT_OUTPUT_LIMIT}){exit_code}", monkeypatch)
    if stream == "stdout":
        assert (result.status, result.payload) == ("ok", "x" * SCRIPT_OUTPUT_LIMIT)
    else:
        assert (result.error_kind, result.payload) == (
            E_SCRIPT, "exit 1: " + "x" * SCRIPT_OUTPUT_LIMIT)
    assert proc.returncode == (0 if stream == "stdout" else 1)


@pytest.mark.parametrize("source", [
    "import sys\nsys.stdout.write('x' * {limit} + 'y')",
    "import sys\nsys.stdout.write('x' * {half})\nsys.stderr.write('x' * {half} + 'y')",
    "import sys, time\nsys.stderr.write('x' * {limit} + 'y')\ntime.sleep(60)",
    "import sys\nwhile True:\n    sys.stdout.write('x' * 65536)",
], ids=["stdout", "both-streams", "then-sleeps", "endless"])
def test_script_runner_output_over_the_limit(tmp_path, monkeypatch, source):
    # the script is killed and reaped as soon as it passes the limit
    limit, half = SCRIPT_OUTPUT_LIMIT, SCRIPT_OUTPUT_LIMIT // 2
    result, proc = run_writer(tmp_path, source.format(limit=limit, half=half), monkeypatch)
    assert (result.status, result.error_kind) == ("error", E_SCRIPT)
    assert result.payload == f"script output exceeds {SCRIPT_OUTPUT_LIMIT} bytes"
    assert proc.returncode is not None
    assert list((tmp_path / "work").iterdir()) == []


def test_script_runner_workdir_under_a_file(store, tmp_path):
    (tmp_path / "plain").write_text("a file, not a directory", encoding="utf-8")
    store.put_tool(ToolDefinition(name="hello", body_kind="script", source="print('hi')"))
    runner = SubprocessScriptRunner(tmp_path / "plain" / "work")
    result = RegistryToolSuite(store, runner=runner).run(ToolCall("hello", {}))
    assert (result.status, result.error_kind) == ("error", E_IO)


def test_tool_definition_rules():
    with pytest.raises(InvalidDefinitionError):
        ToolDefinition(name="bad name")
    with pytest.raises(InvalidDefinitionError):
        ToolDefinition(name="x", body_kind="builtin", builtin="rm_rf")
    with pytest.raises(InvalidDefinitionError):
        ToolDefinition(name="x", body_kind="script", source="   ")
    with pytest.raises(InvalidDefinitionError):
        ToolDefinition(name="x", body_kind="script", source="ok", language="perl")
    with pytest.raises(InvalidDefinitionError):
        ToolDefinition(name="x", body_kind="inline")
    with pytest.raises(InvalidDefinitionError):
        ToolDefinition(name="x", parameters=[ToolParam("bad name")],
                       body_kind="builtin", builtin="echo")
    with pytest.raises(InvalidDefinitionError, match="'a' is named twice"):
        ToolDefinition(name="x", parameters=[ToolParam("a"), ToolParam("b"), ToolParam("a")],
                       body_kind="builtin", builtin="echo")


# ---------------------------------------------------------------------------
# resolver
# ---------------------------------------------------------------------------

def test_registry_resolver_precedence(store, tmp_path):
    form = parse_workflow_form(read_fixture("wiki_article_workflow.xml"))
    store.put_tool(echo_tool())
    store.put_agent(AgentDefinition(
        name="Web Surfer Agent", instructions="registered instructions",
        tool_names=["echo", "vanished_tool"], model="stored-model"))
    suite = RegistryToolSuite(store, workdir=tmp_path)
    resolve = make_registry_resolver(store, form, suite)

    surfer = resolve(form.events[1].agent)
    assert surfer.instructions == "registered instructions"
    assert surfer.model == "claude-3-5-sonnet-20241022"  # event override wins
    assert surfer.tool_names == ["echo"]  # unresolvable names dropped

    # not registered: falls back to the form declaration
    outline = resolve(form.events[2].agent)
    assert outline.name == "Outline Agent"
    assert "outline" in outline.instructions


def test_a_malformed_registry_agent_fails_the_run_before_any_backend_call(store, tmp_path):
    form = parse_workflow_form(read_fixture("wiki_article_workflow.xml"))
    store.put_agent(AgentDefinition(name="Web Surfer Agent", instructions="Search."))
    store.put_agent(AgentDefinition(name="Outline Agent", instructions="Outline."))
    path = store.root / "agents" / "Outline Agent.def"
    record = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**record, "tool_names": "echo"}), encoding="utf-8")
    engine = Engine(mode="transformed", backend=ScriptedBackend(["search result text"]))
    with pytest.raises(InvalidDefinitionError) as err:
        RegistryToolSuite(store, workdir=tmp_path).run_workflow(form, "topic", engine)
    assert err.value.code == "E_INVALID_DEF"
    # on_outline runs in round 3, but its agent is resolved before round 1
    assert engine.backend.calls == 0


def test_a_registry_run_looks_up_each_agent_once(store, tmp_path):
    form = parse_workflow_form(read_fixture("wiki_article_workflow.xml"))
    store.put_agent(AgentDefinition(name="Web Surfer Agent", instructions="Search."))
    looked_up = []
    get_agent = store.get_agent
    store.get_agent = lambda name: (looked_up.append(name), get_agent(name))[1]
    engine = Engine(mode="transformed", backend=ScriptedBackend([
        "search result text", "outline v1",
        "needs work\nSELECTED_OUTPUT: negative_feedback",
        "outline v2", "looks good\nSELECTED_OUTPUT: positive_feedback", "final article"]))
    result = RegistryToolSuite(store, workdir=tmp_path).run_workflow(form, "topic", engine)
    assert result.status == "completed"
    # the GOTO loop runs on_outline and on_evaluate twice, their agents are looked up once
    assert result.trace.count("run on_outline agent=Outline Agent model="
                              "claude-3-5-sonnet-20241022") == 2
    assert sorted(looked_up) == ["Article Writer Agent", "Evaluator Agent",
                                 "Outline Agent", "Web Surfer Agent"]
