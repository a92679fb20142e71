"""CLI surface: exit codes, output shapes, cassette-replayed sessions."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import agentos
from agentos import cli
from agentos.backends import CassetteBackend, ScriptedBackend
from agentos.cli import build_parser, dispatch_command
from agentos.creation import (
    ManagementToolSuite,
    create_agents_pipeline,
    create_workflow_pipeline,
)
from agentos.engine import DIRECT, TRANSFORMED, Engine
from agentos.errors import PhaseExhaustedError
from agentos.forms import parse_workflow_form
from agentos.kernel import AgentDefinition, ToolCall
from agentos.registry import RegistryStore, RegistryToolSuite, ToolDefinition, ToolParam

from conftest import DATA, read_fixture
from test_creation import (
    CREATE_AGGREGATOR,
    CREATE_GREETER_AGENT,
    CREATE_GREETING_TOOL,
    CREATE_SOLVER,
    GREETER_XML,
    TOOL_TEST_REPLY,
    _register_call,
)

MATH_FORM = str(DATA / "math_voting_workflow.xml")
WIKI_FORM = str(DATA / "wiki_article_workflow.xml")
IMAGE_FORM = str(DATA / "image_agent_form.xml")


def run_cli(capsys, argv) -> tuple[int, str, str]:
    code = dispatch_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_math_cassette(cassette: Path, registry_root: Path, input_text: str,
                         steps: list) -> None:
    """Produce a cassette holding exactly the requests a CLI run will make."""
    store = RegistryStore(registry_root)
    backend = CassetteBackend(str(cassette), "record", inner=ScriptedBackend(steps))
    engine = Engine(mode="transformed", backend=backend, model="")
    suite = RegistryToolSuite(store, workdir=registry_root / "workspace")
    suite.run_workflow(parse_workflow_form(read_fixture("math_voting_workflow.xml")),
                       input_text, engine)


def test_python_m_agentos_runs_the_cli(monkeypatch):
    # one process: `python -m agentos --help` prints the parser's help, which
    # `python -m agentos.cli --help` prints too
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(agentos.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "agentos", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, build_parser().format_help(), "")


def test_the_package_and_the_cli_load_without_numpy():
    # one process: numpy, which only the RAG store uses, is the slowest import
    # of a CLI start; `agentos rag` and the RAG names of the package load it
    env = {**os.environ, "PYTHONPATH": str(Path(agentos.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", "import sys, agentos, agentos.cli; "
                           "print('numpy' in sys.modules, agentos.RagStore.__module__, "
                           "'numpy' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False agentos.ragstore True\n", "")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_clean_workflow(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["validate", MATH_FORM,
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 0
    assert out.splitlines()[-1] == "0 diagnostics"


def test_validate_reads_the_root_element_not_a_comment(tmp_path, capsys):
    # the form's kind is its first element's name, whatever a comment,
    # a processing instruction or a byte-order mark before it says
    root = tmp_path / "reg"
    RegistryStore(root).put_tool(ToolDefinition(
        name="visual_question_answering", description="answers about images",
        parameters=[ToolParam("text")], body_kind="builtin", builtin="echo"))
    forms = {
        "workflow.xml": "<!-- drafted from the <agents> form -->\n"
                        + read_fixture("math_voting_workflow.xml"),
        "agents.xml": '<?xml version="1.0"?>\n<!-- not a <workflow> form -->'
                      + read_fixture("image_agent_form.xml"),
        "bom.xml": "\ufeff" + read_fixture("math_voting_workflow.xml"),
    }
    for name, text in forms.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, ["validate", str(tmp_path / name),
                                        "--registry-root", str(root)])
        assert (name, code, out) == (name, 0, "0 diagnostics\n")


def test_validate_diagnostics_exit_one(tmp_path, capsys):
    # wiki form needs Web Surfer Agent in the registry
    code, out, _ = run_cli(capsys, ["validate", WIKI_FORM,
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("V8 ")
    assert lines[-1] == "1 diagnostics"


def test_validate_agents_form_against_registry(tmp_path, capsys):
    root = tmp_path / "reg"
    code, out, _ = run_cli(capsys, ["validate", IMAGE_FORM,
                                    "--registry-root", str(root)])
    assert code == 1
    assert out.splitlines()[0].startswith("A3 ")

    store = RegistryStore(root)
    store.put_tool(ToolDefinition(
        name="visual_question_answering", description="answers about images",
        parameters=[ToolParam("text")], body_kind="builtin", builtin="echo"))
    code, out, _ = run_cli(capsys, ["validate", IMAGE_FORM,
                                    "--registry-root", str(root)])
    assert (code, out.splitlines()[-1]) == (0, "0 diagnostics")


def test_validate_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text("<workflow><broken", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["validate", str(bad),
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("E_XML: ")
    assert lines[-1] == "1 diagnostics"


def test_validate_unknown_action_type(tmp_path, capsys):
    # an ActionTypeError is a SchemaError: reported under its own code
    form = tmp_path / "jump.xml"
    form.write_text(read_fixture("math_voting_workflow.xml").replace(
        "<type>RESULT</type>", "<type>JUMP</type>", 1), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["validate", str(form),
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("E_ACTION_TYPE: /workflow/events[1]/event[")
    assert lines[0].endswith("/type[1]: unknown action type: 'JUMP'")
    assert lines[-1] == "1 diagnostics"


def test_validate_form_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.xml"
    bad.write_bytes(b"<workflow><name>caf\xe9</name></workflow>")
    code, out, err = run_cli(capsys, ["validate", str(bad),
                                      "--registry-root", str(tmp_path / "reg")])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("E_XML: ")
    assert lines[-1] == "1 diagnostics"
    assert "Traceback" not in out + err


def test_validate_missing_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["validate", str(tmp_path / "ghost.xml"),
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 1
    assert out.startswith("E_IO: ")


def test_validate_json_output(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["validate", MATH_FORM, "--json",
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 0
    assert json.loads(out) == {"diagnostics": []}
    assert out.count("\n") == 1


# ---------------------------------------------------------------------------
# run-workflow
# ---------------------------------------------------------------------------

def test_run_workflow_requires_backend(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("AGENT_API_BASE", raising=False)
    code, out, _ = run_cli(capsys, ["run-workflow", MATH_FORM, "--input", "x",
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 1
    assert out.startswith("E_BACKEND: no backend configured")


def test_run_workflow_record_requires_api_base(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("AGENT_API_BASE", raising=False)
    code, out, _ = run_cli(capsys, ["run-workflow", MATH_FORM, "--input", "x",
                                    "--registry-root", str(tmp_path / "reg"),
                                    "--cassette", str(tmp_path / "c.txt"),
                                    "--cassette-mode", "record"])
    assert code == 1
    assert out == "E_BACKEND: recording needs --api-base or AGENT_API_BASE\n"
    assert not (tmp_path / "c.txt").exists()


def test_run_workflow_rejects_agents_form(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["run-workflow", IMAGE_FORM, "--input", "x",
                                    "--registry-root", str(tmp_path / "reg"),
                                    "--cassette", str(tmp_path / "c.txt"),
                                    "--cassette-mode", "replay"])
    assert code == 1
    assert out.startswith("E_SCHEMA: ")


def test_run_workflow_form_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.xml"
    bad.write_bytes(b"<workflow><name>caf\xe9</name></workflow>")
    code, out, err = run_cli(capsys, ["run-workflow", str(bad), "--input", "x",
                                      "--registry-root", str(tmp_path / "reg")])
    assert code == 1
    assert out.startswith("E_XML: ")
    assert "Traceback" not in out + err


def test_run_workflow_cassette_that_is_not_utf8(tmp_path, capsys):
    cassette = tmp_path / "latin1.cassette"
    cassette.write_bytes(b"A1 caf\xe9 4 Zm9v\n")
    code, out, err = run_cli(capsys, ["run-workflow", MATH_FORM, "--input", "x",
                                      "--registry-root", str(tmp_path / "reg"),
                                      "--cassette", str(cassette),
                                      "--cassette-mode", "replay"])
    assert code == 1
    assert out.startswith("E_BACKEND: corrupt cassette record at line 1")
    assert "Traceback" not in out + err


def test_run_workflow_replay_byte_identical(tmp_path, capsys):
    cassette = tmp_path / "math.cassette"
    record_math_cassette(cassette, tmp_path / "rec", "What is 2+2?",
                         ["4", "4", "5", "the votes pick 4"])

    def replay(tag: str, *flags: str) -> tuple[str, bytes]:
        trace = tmp_path / f"trace-{tag}.txt"
        code, out, _ = run_cli(capsys, [
            "run-workflow", MATH_FORM, "--input", "What is 2+2?",
            "--registry-root", str(tmp_path / f"reg-{tag}"),
            "--cassette", str(cassette), "--cassette-mode", "replay",
            "--trace", str(trace), *flags])
        assert code == 0
        return out, trace.read_bytes()

    out_a, trace_a = replay("a")
    out_b, trace_b = replay("b")
    # the cassette was recorded by a serial run; a parallel replay matches it
    out_c, trace_c = replay("c", "--parallel")
    assert out_a == out_b == out_c == "the votes pick 4\n"
    assert trace_a == trace_b == trace_c
    text = trace_a.decode("utf-8")
    assert text.splitlines()[0] == "round 1"
    assert text.splitlines()[-1] == "complete output=final_solution"


@pytest.mark.parametrize("where", ["missing/trace.txt", "folder"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_run_workflow_trace_it_cannot_write(tmp_path, capsys, where, json_flag):
    cassette = tmp_path / "math.cassette"
    record_math_cassette(cassette, tmp_path / "rec", "2+2?", ["4", "4", "5", "4"])
    (tmp_path / "folder").mkdir()
    code, out, err = run_cli(capsys, [
        "run-workflow", MATH_FORM, "--input", "2+2?", *json_flag,
        "--registry-root", str(tmp_path / "reg"),
        "--cassette", str(cassette), "--cassette-mode", "replay",
        "--trace", str(tmp_path / where)])
    assert code == 1
    if json_flag:
        assert json.loads(out)["error"] == "E_IO"
    else:
        assert out.startswith("E_IO: ") and out.count("\n") == 1
    assert "Traceback" not in out + err


def test_run_workflow_event_failure_exit_one(tmp_path, capsys):
    cassette = tmp_path / "fail.cassette"
    bad = "SELECTED_OUTPUT: bogus_key\nnot a declared key"
    record_math_cassette(cassette, tmp_path / "rec", "2+2?",
                         ["4", "4", "5", bad, bad])
    code, out, _ = run_cli(capsys, [
        "run-workflow", MATH_FORM, "--input", "2+2?",
        "--registry-root", str(tmp_path / "reg"),
        "--cassette", str(cassette), "--cassette-mode", "replay"])
    assert code == 1
    assert out.startswith("error E_OUTPUT_UNDECLARED: ")


def test_a_registered_workflow_runs_under_its_own_name(tmp_path, capsys):
    # running registers nothing, so the workflow's own registry entry is no
    # V1 collision for a run; registering and validating still report it
    root = tmp_path / "reg"
    store = RegistryStore(root)
    store.put_workflow(parse_workflow_form(read_fixture("math_voting_workflow.xml")))
    cassette = tmp_path / "math.cassette"
    steps = ["4", "4", "5", "the votes pick 4"]
    record_math_cassette(cassette, tmp_path / "rec", "2+2?", steps)
    code, out, _ = run_cli(capsys, [
        "run-workflow", MATH_FORM, "--input", "2+2?", "--registry-root", str(root),
        "--cassette", str(cassette), "--cassette-mode", "replay"])
    assert (code, out) == (0, "the votes pick 4\n")

    suite = ManagementToolSuite(store, engine=Engine(mode="transformed",
                                                     backend=ScriptedBackend(list(steps))))
    ran = suite.run(ToolCall("run_workflow", {"name": "parallel_math_solver_workflow",
                                              "input": "2+2?"}))
    assert (ran.status, ran.payload) == ("ok", "the votes pick 4")

    code, out, _ = run_cli(capsys, ["validate", MATH_FORM, "--registry-root", str(root)])
    assert code == 1
    assert out.splitlines()[0] == ("V1 /workflow/name: workflow name already registered: "
                                   "parallel_math_solver_workflow")


# ---------------------------------------------------------------------------
# create-agents via replay
# ---------------------------------------------------------------------------

GREETER_STEPS = [GREETER_XML, CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
                 CREATE_GREETER_AGENT, "registered"]


def record_greeter_cassette(cassette: Path, registry_root: Path) -> None:
    store = RegistryStore(registry_root)
    backend = CassetteBackend(str(cassette), "record",
                              inner=ScriptedBackend(list(GREETER_STEPS)))
    engine = Engine(mode="direct", backend=backend, model="")
    suite = ManagementToolSuite(store, engine=engine,
                                workdir=registry_root / "workspace")
    create_agents_pipeline("make a greeter", engine, store, suite=suite, model="")


def test_create_agents_replay(tmp_path, capsys):
    cassette = tmp_path / "greeter.cassette"
    record_greeter_cassette(cassette, tmp_path / "rec")
    root = tmp_path / "reg"
    code, out, _ = run_cli(capsys, [
        "create-agents", "--requirements", "make a greeter",
        "--registry-root", str(root), "--mode", "direct",
        "--cassette", str(cassette), "--cassette-mode", "replay"])
    assert code == 0
    assert out == ("phase profiling: ok attempts=1\n"
                   "phase tools: ok attempts=1\n"
                   "phase agents: ok attempts=1\n"
                   "created tools: greeting_tool\n"
                   "created agents: Greeter Agent\n")
    store = RegistryStore(root)
    assert store.names("tools") == ["greeting_tool"]
    assert store.names("agents") == ["Greeter Agent"]


def test_create_workflow_replay(tmp_path, capsys):
    cassette = tmp_path / "math.cassette"
    store = RegistryStore(tmp_path / "rec")
    backend = CassetteBackend(str(cassette), "record", inner=ScriptedBackend([
        read_fixture("math_voting_workflow.xml"), CREATE_SOLVER, CREATE_AGGREGATOR, "created",
        _register_call(), "registered", "x=4", "x=4", "x=5", "majority: x=4"]))
    engine = Engine(mode="direct", backend=backend, model="")
    create_workflow_pipeline("vote on math", engine, store, test_input="solve 2x=8",
                             suite=ManagementToolSuite(store, engine=engine,
                                                       workdir=tmp_path / "rec" / "workspace"))
    root = tmp_path / "reg"
    code, out, _ = run_cli(capsys, [
        "create-workflow", "--requirements", "vote on math", "--task", "solve 2x=8",
        "--registry-root", str(root), "--mode", "direct",
        "--cassette", str(cassette), "--cassette-mode", "replay"])
    assert code == 0
    assert out == ("phase profiling: ok attempts=1\n"
                   "phase agents: ok attempts=1\n"
                   "phase register: ok attempts=1\n"
                   "phase test: ok attempts=1\n"
                   "created agents: Math Solver Agent, Vote Aggregator Agent\n"
                   "registered workflow parallel_math_solver_workflow\n")
    assert RegistryStore(root).snapshot() == store.snapshot()


def test_create_agents_exhaustion_exit_one(tmp_path, capsys):
    cassette = tmp_path / "hopeless.cassette"
    store = RegistryStore(tmp_path / "rec")
    backend = CassetteBackend(str(cassette), "record",
                              inner=ScriptedBackend(["nope", "nope", "nope"]))
    engine = Engine(mode="direct", backend=backend, model="")
    with pytest.raises(Exception):
        create_agents_pipeline("make a greeter", engine, store,
                               suite=ManagementToolSuite(store, engine=engine),
                               model="")
    code, out, _ = run_cli(capsys, [
        "create-agents", "--requirements", "make a greeter",
        "--registry-root", str(tmp_path / "reg"), "--mode", "direct",
        "--cassette", str(cassette), "--cassette-mode", "replay"])
    assert code == 1
    assert out.startswith("E_PHASE_EXHAUSTED: ")


def test_create_workflow_exhaustion_json_names_phase(tmp_path, capsys):
    cassette = tmp_path / "hopeless.cassette"
    store = RegistryStore(tmp_path / "rec")
    backend = CassetteBackend(str(cassette), "record",
                              inner=ScriptedBackend(["nope", "nope", "nope"]))
    engine = Engine(mode="direct", backend=backend, model="")
    with pytest.raises(PhaseExhaustedError):
        create_workflow_pipeline("vote on math", engine, store,
                                 suite=ManagementToolSuite(store, engine=engine))
    code, out, _ = run_cli(capsys, [
        "create-workflow", "--requirements", "vote on math", "--json",
        "--registry-root", str(tmp_path / "reg"), "--mode", "direct",
        "--cassette", str(cassette), "--cassette-mode", "replay"])
    assert code == 1
    assert json.loads(out) == {"error": "E_PHASE_EXHAUSTED", "phase": "profiling",
                               "message": "phase profiling exhausted its attempts"}


@pytest.mark.parametrize("command", ["create-agents", "create-workflow"])
@pytest.mark.parametrize("attempts", ["0", "-2", "x"])
def test_max_attempts_below_one_is_a_usage_error(tmp_path, capsys, command, attempts):
    cassette = tmp_path / "empty.cassette"
    cassette.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, [
        command, "--requirements", "make a greeter", "--max-attempts", attempts,
        "--registry-root", str(tmp_path / "reg"),
        "--cassette", str(cassette), "--cassette-mode", "replay"])
    assert (code, out) == (2, "")
    assert err.endswith(f"{command}: error: argument --max-attempts: "
                        f"invalid positive_int value: '{attempts}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.cassette"]
    assert build_parser().parse_args([command, "--requirements", "r",
                                      "--max-attempts", "1"]).max_attempts == 1


# ---------------------------------------------------------------------------
# registry commands
# ---------------------------------------------------------------------------

def test_registry_list_show_delete(tmp_path, capsys):
    root = tmp_path / "reg"
    store = RegistryStore(root)
    code, out, _ = run_cli(capsys, ["registry", "list", "tools",
                                    "--registry-root", str(root)])
    assert (code, out) == (1, f"E_NOT_FOUND: no registry at {root}\n")
    store.put_agent(AgentDefinition(name="helper"))
    code, out, _ = run_cli(capsys, ["registry", "list", "tools",
                                    "--registry-root", str(root)])
    assert (code, out) == (0, "(none)\n")

    store.put_tool(ToolDefinition(name="echo", description="echoes",
                                  parameters=[ToolParam("text")],
                                  body_kind="builtin", builtin="echo"))
    code, out, _ = run_cli(capsys, ["registry", "list", "tools",
                                    "--registry-root", str(root)])
    assert (code, out) == (0, "echo\n")

    code, out, _ = run_cli(capsys, ["registry", "show", "tools", "echo",
                                    "--registry-root", str(root)])
    assert code == 0
    shown = json.loads(out)
    assert shown["name"] == "echo"
    assert shown["format_version"] == 1

    code, out, _ = run_cli(capsys, ["registry", "delete", "tools", "echo",
                                    "--registry-root", str(root)])
    assert (code, out) == (0, "deleted tool echo\n")
    code, out, _ = run_cli(capsys, ["registry", "delete", "tools", "echo",
                                    "--registry-root", str(root)])
    assert code == 1
    assert out.startswith("E_NOT_FOUND: ")


@pytest.mark.parametrize("argv", [["registry", "list", "tools"],
                                  ["registry", "show", "agents", "ghost"]])
def test_registry_reads_leave_a_missing_root_missing(tmp_path, capsys, argv):
    root = tmp_path / "typo"
    code, out, _ = run_cli(capsys, argv + ["--registry-root", str(root)])
    assert code == 1
    assert out.startswith("E_NOT_FOUND: ")
    assert not root.exists()


def test_rag_query_leaves_a_missing_root_missing(tmp_path, capsys):
    root = tmp_path / "rag"
    code, out, _ = run_cli(capsys, ["rag", "query", "x", "--collection", "notes",
                                    "--rag-root", str(root)])
    assert code == 1
    assert out.startswith("E_NOT_FOUND: ")
    assert not root.exists()


def test_registry_show_missing(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["registry", "show", "agents", "ghost",
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 1
    assert out == "E_NOT_FOUND: not in registry: ghost\n"


def test_registry_show_needs_name(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["registry", "show", "tools",
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 1
    assert out.startswith("E_ARGS: ")


def test_registry_json_listing(tmp_path, capsys):
    (tmp_path / "reg").mkdir()  # an empty registry; a missing one is E_NOT_FOUND
    code, out, _ = run_cli(capsys, ["registry", "list", "workflows", "--json",
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 0
    assert json.loads(out) == {"workflows": []}


def test_registry_json_failure(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["registry", "show", "tools", "ghost", "--json",
                                    "--registry-root", str(tmp_path / "reg")])
    assert code == 1
    assert json.loads(out) == {"error": "E_NOT_FOUND",
                               "message": "not in registry: ghost"}


def test_registry_show_stays_inside_the_registry(tmp_path, capsys):
    root = tmp_path / "reg"
    (root / "tools").mkdir(parents=True)
    (root / "secret.def").write_text('{"secret": 1}\n', encoding="utf-8")
    for name in ("../secret", "../tools/../../secret"):
        code, out, _ = run_cli(capsys, ["registry", "show", "tools", name,
                                        "--registry-root", str(root)])
        assert code == 1
        assert out == f"E_INVALID_DEF: unusable tool name: {name!r}\n"


def test_registry_show_prints_the_canonical_record(tmp_path, capsys):
    root = tmp_path / "reg"
    RegistryStore(root).put_agent(AgentDefinition(
        name="Helper Agent", description="d", tool_names=["echo"]))
    code, out, _ = run_cli(capsys, ["registry", "show", "agents", "Helper Agent",
                                    "--registry-root", str(root)])
    assert code == 0
    assert out == (root / "agents" / "Helper Agent.def").read_text(encoding="utf-8")
    code, out, _ = run_cli(capsys, ["registry", "show", "agents", "Helper Agent",
                                    "--json", "--registry-root", str(root)])
    assert json.loads(out)["tool_names"] == ["echo"]


@pytest.mark.parametrize("data", [b"{not json", b"[]", b'{"format_version": 1}',
                                  b'{"format_version": 1, "kind": "tool", "name": "x",'
                                  b' "version": 1, "parameters": "p"}'])
def test_registry_show_malformed_def(tmp_path, capsys, data):
    root = tmp_path / "reg"
    (root / "tools").mkdir(parents=True)
    (root / "tools" / "x.def").write_bytes(data)
    code, out, _ = run_cli(capsys, ["registry", "show", "tools", "x",
                                    "--registry-root", str(root)])
    assert code == 1
    assert out.startswith("E_INVALID_DEF: ")


# ---------------------------------------------------------------------------
# rag commands
# ---------------------------------------------------------------------------

def test_rag_add_and_query(tmp_path, capsys):
    root = str(tmp_path / "rag")
    doc = tmp_path / "notes.txt"
    doc.write_text("solar panels convert sunlight into electric power",
                   encoding="utf-8")
    code, out, _ = run_cli(capsys, ["rag", "add", str(doc),
                                    "--collection", "notes", "--rag-root", root])
    assert (code, out) == (0, "indexed notes.txt: 1 chunks\n")

    code, out, _ = run_cli(capsys, ["rag", "query", "solar power",
                                    "--collection", "notes", "--rag-root", root])
    assert code == 0
    first = out.splitlines()[0]
    score, location, rest = first.split(" ", 2)
    assert float(score) > 0
    assert location == "notes.txt:0"
    assert rest.startswith("solar panels")

    code, out, _ = run_cli(capsys, ["rag", "query", "anything", "-k", "0",
                                    "--collection", "notes", "--rag-root", root])
    assert (code, out) == (0, "(no results)\n")


def test_rag_query_missing_collection(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["rag", "query", "x", "--collection", "ghost",
                                    "--rag-root", str(tmp_path / "rag")])
    assert code == 1
    assert out.startswith("E_NOT_FOUND: ")


def test_rag_add_unsupported_file(tmp_path, capsys):
    doc = tmp_path / "image.png"
    doc.write_bytes(b"\x89PNG")
    code, out, _ = run_cli(capsys, ["rag", "add", str(doc),
                                    "--collection", "c",
                                    "--rag-root", str(tmp_path / "rag")])
    assert code == 1
    assert out.startswith("E_EMPTY: ")


def test_rag_bad_collection_name(tmp_path, capsys):
    doc = tmp_path / "notes.txt"
    doc.write_text("some words", encoding="utf-8")
    root = str(tmp_path / "rag")
    for argv in (["rag", "query", "q", "--collection", ".x"],
                 ["rag", "query", "q", "--collection", "../x", "--json"],
                 ["rag", "add", str(doc), "--collection", " padded"]):
        code, out, _ = run_cli(capsys, argv + ["--rag-root", root])
        assert code == 1
        assert "E_INVALID_DEF" in out and "unusable collection name" in out
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("shared", [["--rag-root", "elsewhere"], ["--json"]])
def test_rag_shared_options_before_the_action_are_a_usage_error(tmp_path, capsys,
                                                                 monkeypatch, shared):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "notes.txt").write_text("solar panels", encoding="utf-8")
    for action in (["add", "notes.txt", "--collection", "c"],
                   ["query", "solar", "--collection", "c"]):
        code, out, _ = run_cli(capsys, ["rag", *shared, *action])
        assert (code, out) == (2, "")
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
    # after the action they are read
    code, out, _ = run_cli(capsys, ["rag", "add", "notes.txt", "--collection", "c",
                                    "--rag-root", "elsewhere", "--json"])
    assert (code, json.loads(out)) == (0, {"indexed": {"notes.txt": 1}})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere", "notes.txt"]


@pytest.mark.parametrize("inside_a_folder", [False, True])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_rag_add_text_that_is_not_utf8(tmp_path, capsys, inside_a_folder, json_flag):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "good.txt").write_text("solar panels", encoding="utf-8")
    (docs / "latin1.txt").write_bytes(b"caf\xe9 au lait")
    path = docs if inside_a_folder else docs / "latin1.txt"
    code, out, err = run_cli(capsys, ["rag", "add", str(path), "--collection", "c",
                                      "--rag-root", str(tmp_path / "rag"), *json_flag])
    assert code == 1
    if json_flag:
        assert json.loads(out)["error"] == "E_IO"
    else:
        assert out.startswith("E_IO: ") and out.count("\n") == 1
    assert "latin1.txt" in out  # the document to fix
    assert "Traceback" not in out + err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_rag_query_a_collection_with_a_malformed_meta_file(tmp_path, capsys, json_flag):
    root = tmp_path / "rag"
    doc = tmp_path / "notes.txt"
    doc.write_text("solar panels", encoding="utf-8")
    assert run_cli(capsys, ["rag", "add", str(doc), "--collection", "notes",
                            "--rag-root", str(root)])[0] == 0
    (root / "notes" / "meta.jsonl").write_bytes(b"not json\n")
    code, out, err = run_cli(capsys, ["rag", "query", "solar", "--collection", "notes",
                                      "--rag-root", str(root), *json_flag])
    assert code == 1
    message = "corrupt meta file for collection: notes"
    if json_flag:
        assert json.loads(out) == {"error": "E_NOT_FOUND", "message": message}
    else:
        assert out == f"E_NOT_FOUND: {message}\n"
    assert "Traceback" not in out + err


# ---------------------------------------------------------------------------
# repl
# ---------------------------------------------------------------------------

def test_repl_session(tmp_path, capsys, monkeypatch):
    cassette = tmp_path / "empty.cassette"
    cassette.write_text("", encoding="utf-8")
    log = tmp_path / "session.log"
    monkeypatch.setattr("sys.stdin", io.StringIO(
        ":mode workflow\n:mode bogus\n:mode\nmake something\n:quit\n"))
    code, out, _ = run_cli(capsys, [
        "repl", "--log", str(log),
        "--registry-root", str(tmp_path / "reg"),
        "--cassette", str(cassette), "--cassette-mode", "replay"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode: agents (':mode agents|workflow' to switch, ':quit' to exit)"
    assert lines[1] == "mode: workflow"
    assert lines[2] == "usage: :mode agents|workflow"
    assert lines[3] == "usage: :mode agents|workflow"
    assert lines[4].startswith("E_CASSETTE_MISS: ")

    transcript = log.read_text(encoding="utf-8").splitlines()
    assert "> :mode workflow" in transcript
    assert "> :quit" in transcript


def test_repl_agents_mode_creates_the_team(tmp_path, capsys, monkeypatch):
    cassette = tmp_path / "greeter.cassette"
    record_greeter_cassette(cassette, tmp_path / "rec")
    log = tmp_path / "session.log"
    monkeypatch.setattr("sys.stdin", io.StringIO("make a greeter\n:quit\n"))
    code, out, _ = run_cli(capsys, [
        "repl", "--log", str(log), "--registry-root", str(tmp_path / "reg"),
        "--mode", "direct", "--cassette", str(cassette), "--cassette-mode", "replay"])
    assert code == 0
    report = ["phase profiling: ok attempts=1",
              "phase tools: ok attempts=1",
              "phase agents: ok attempts=1",
              "created tools: greeting_tool",
              "created agents: Greeter Agent"]
    assert out.splitlines()[1:] == report
    assert log.read_text(encoding="utf-8").splitlines() == [
        out.splitlines()[0], "> make a greeter", *report, "> :quit"]
    assert RegistryStore(tmp_path / "reg").names("agents") == ["Greeter Agent"]


def test_repl_skips_blank_lines(tmp_path, capsys, monkeypatch):
    (tmp_path / "empty.cassette").write_text("", encoding="utf-8")
    log = tmp_path / "session.log"
    monkeypatch.setattr("sys.stdin", io.StringIO("\n   \n:quit\n"))
    code, out, _ = run_cli(capsys, [
        "repl", "--log", str(log), "--registry-root", str(tmp_path / "reg"),
        "--cassette", str(tmp_path / "empty.cassette"), "--cassette-mode", "replay"])
    assert code == 0
    assert out.splitlines()[1:] == []
    assert log.read_text(encoding="utf-8").splitlines()[1:] == ["> ", "> ", "> :quit"]


def test_repl_log_it_cannot_write(tmp_path, capsys, monkeypatch):
    (tmp_path / "empty.cassette").write_text("", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(":quit\n"))
    code, out, err = run_cli(capsys, [
        "repl", "--log", str(tmp_path / "missing" / "session.log"),
        "--registry-root", str(tmp_path / "reg"),
        "--cassette", str(tmp_path / "empty.cassette"), "--cassette-mode", "replay"])
    assert code == 1
    assert out.splitlines()[-1].startswith("E_IO: ")
    assert "Traceback" not in out + err


# ---------------------------------------------------------------------------
# usage errors and hygiene
# ---------------------------------------------------------------------------

def test_usage_errors_exit_two(tmp_path, capsys):
    assert dispatch_command([]) == 2
    capsys.readouterr()
    assert dispatch_command(["no-such-command"]) == 2
    capsys.readouterr()
    code, _, err = run_cli(capsys, ["validate", MATH_FORM,
                                    "--cassette-mode", "replay"])
    assert code == 2
    assert err.strip() == "E_ARGS: --cassette-mode needs --cassette"


def test_api_key_never_printed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("AGENT_API_BASE", raising=False)
    code, out, err = run_cli(capsys, [
        "run-workflow", MATH_FORM, "--input", "x",
        "--registry-root", str(tmp_path / "reg"),
        "--api-key", "sk-super-secret"])
    assert code == 1
    assert "sk-super-secret" not in out + err

    code, out, err = run_cli(capsys, ["validate", MATH_FORM,
                                      "--registry-root", str(tmp_path / "reg"),
                                      "--api-key", "sk-super-secret"])
    assert code == 0
    assert "sk-super-secret" not in out + err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_api_key_with_a_control_character_never_printed(tmp_path, capsys, loopback,
                                                         json_flag):
    # such a key cannot go in a header: the run stops at once, with no retry
    # and without quoting the header
    route = loopback.route()
    code, out, err = run_cli(capsys, [
        "run-workflow", MATH_FORM, "--input", "x", *json_flag,
        "--registry-root", str(tmp_path / "reg"),
        "--api-base", route.url, "--api-key", "sk-secret\n"])
    assert code == 1
    assert "request cannot be sent" in out
    assert "sk-secret" not in out + err
    assert route.sent == []


@pytest.mark.parametrize("base_url", ["file:///etc", "ftp://api.example", "api.example"])
def test_api_base_must_be_http_or_https(tmp_path, capsys, base_url):
    code, out, _ = run_cli(capsys, ["run-workflow", MATH_FORM, "--input", "x",
                                    "--registry-root", str(tmp_path / "reg"),
                                    "--api-base", base_url])
    assert (code, out) == (1, "E_BACKEND: the API base URL must start with http:// or https://\n")


def test_flag_overrides_environment(tmp_path, capsys, monkeypatch):
    # a bogus env base would fail; replay flag wins and no network is touched
    monkeypatch.setenv("AGENT_API_BASE", "http://example.invalid")
    cassette = tmp_path / "math.cassette"
    record_math_cassette(cassette, tmp_path / "rec", "2+2?",
                         ["4", "4", "5", "4 it is"])
    code, out, _ = run_cli(capsys, [
        "run-workflow", MATH_FORM, "--input", "2+2?",
        "--registry-root", str(tmp_path / "reg"),
        "--cassette", str(cassette), "--cassette-mode", "replay"])
    assert (code, out) == (0, "4 it is\n")


# ---------------------------------------------------------------------------
# one command, one parser, its own modules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, parsers", [
    (["validate", "missing.xml"], 2),
    (["run-workflow", "missing.xml", "--input", "x"], 2),
    (["create-agents", "--requirements", "r", "--cassette-mode", "replay"], 2),
    (["create-workflow", "--requirements", "r", "--cassette-mode", "replay"], 2),
    (["registry", "list", "tools"], 2),
    (["repl", "--cassette-mode", "replay"], 2),
    (["rag", "add", "missing.txt", "--collection", "c"], 4),
    (["rag", "query", "solar", "--collection", "c"], 4),
    (["--help"], 10),
    (["registry", "list", "tools", "--bogus"], 2 + 10),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_a_command_builds_only_its_own_parser(tmp_path, capsys, monkeypatch, argv, parsers):
    monkeypatch.chdir(tmp_path)
    made = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, _, _ = run_cli(capsys, argv)
    assert code in (0, 1, 2)
    assert len(made) == parsers
    assert list(tmp_path.iterdir()) == []


WHOLE_PARSER_CASES = [
    [], ["--help"], ["-h", "run-workflow"], ["nope"], ["rag"],
    *([*command, "--help"] for command in (
        ["validate"], ["run-workflow"], ["create-agents"], ["create-workflow"],
        ["registry"], ["rag"], ["rag", "add"], ["rag", "query"], ["repl"])),
    ["run-workflow", "missing.xml", "--input", "y"],
    ["run-workflow", "x", "--input", "y", "--mode", "bad"],
    ["registry", "list", "tools", "--bogus"],
]


@pytest.mark.parametrize("argv", WHOLE_PARSER_CASES, ids=lambda argv: " ".join(argv) or "-")
def test_a_one_command_parser_prints_what_the_whole_parser_prints(tmp_path, capsys,
                                                                   monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    got = run_cli(capsys, argv)
    monkeypatch.setattr(cli, "_COMMAND_NAMES", frozenset())  # every argv takes the whole parser
    assert run_cli(capsys, argv) == got
    if argv[-1:] == ["--bogus"]:
        assert "{validate,run-workflow,create-agents,create-workflow,registry,rag,repl}" in got[2]


def test_the_mode_choices_are_the_engine_modes(capsys):
    assert dispatch_command(["validate", "--help"]) == 0
    assert f"[--mode {{{DIRECT},{TRANSFORMED}}}]" in capsys.readouterr().out
    assert build_parser().parse_args(["validate", "form.xml"]).mode == TRANSFORMED


def loaded_modules(argv: list[str], cwd: Path) -> set[str]:
    """The modules a fresh process holds after ``agentos.cli.main(argv)``."""
    env = {**os.environ, "PYTHONPATH": str(Path(agentos.__file__).parents[1])}
    script = ("import sys, agentos.cli\n"
              "try:\n"
              "    agentos.cli.main(sys.argv[1:])\n"
              "except SystemExit:\n"
              "    pass\n"
              "print(' '.join(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return set(done.stdout.splitlines()[-1].split())


def test_help_and_rag_query_load_only_their_own_modules(tmp_path, capsys):
    # agentos.forms loads with the CLI: see the import of it in cli.py
    runs = {"agentos.registry", "agentos.creation", "agentos.workflow"}
    help_modules = loaded_modules(["--help"], tmp_path)
    assert "agentos.cli" in help_modules
    assert help_modules.isdisjoint(runs | {"agentos.ragstore", "agentos.viewport",
                                           "agentos.engine", "agentos.backends", "numpy"})
    (tmp_path / "notes.txt").write_text("solar panels", encoding="utf-8")
    assert run_cli(capsys, ["rag", "add", str(tmp_path / "notes.txt"), "--collection", "c",
                            "--rag-root", str(tmp_path / "rag")])[0] == 0
    query_modules = loaded_modules(["rag", "query", "solar", "--collection", "c",
                                    "--rag-root", str(tmp_path / "rag")], tmp_path)
    assert "agentos.ragstore" in query_modules and query_modules.isdisjoint(runs)


def test_a_replayed_run_loads_no_network_stack(tmp_path):
    # only HttpBackend's POST imports urllib.request, which loads the others
    cassette = tmp_path / "math.cassette"
    record_math_cassette(cassette, tmp_path / "rec", "2+2?", ["4", "4", "5", "4"])
    modules = loaded_modules(["run-workflow", MATH_FORM, "--input", "2+2?",
                              "--registry-root", str(tmp_path / "reg"),
                              "--cassette", str(cassette), "--cassette-mode", "replay"],
                             tmp_path)
    assert "agentos.backends" in modules
    assert modules.isdisjoint({"urllib.request", "http.client", "ssl"})
