"""Command-line operator surface.

Exit codes: 0 success, 1 operation failure, 2 usage error. Output is
line-oriented plain text; ``--json`` switches every command to a single
JSON object on stdout. Nothing printed here ever includes the API key, and
no output line carries a timestamp, so a replayed session is byte-identical
run to run.

Configuration precedence: command-line flags, then the environment
(AGENT_API_BASE, AGENT_API_KEY, AGENT_MODEL), then defaults. Cassette
replay needs no network configuration at all.

Each command is one process, so a command builds only its own parser and
imports only the modules it runs: ``_COMMANDS`` holds one row per command,
and each command function imports what it uses. The forms module is the one
exception; it loads with this module. ``--help``, and any argument list that
does not start with a command's name, get the parser of every command, so
help and usage text read the same either way.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import AgentOsError, PhaseExhaustedError, SchemaError, XmlError
# bound here, not inside the commands: bench/tracing.py wraps every module's
# binding of validate_workflow_form, and its tests expect this one among them
from .forms import (WorkflowForm, parse_agent_form, parse_workflow_form, validate_agent_form,
                    validate_workflow_form)

if TYPE_CHECKING:
    from .creation import CreationReport
    from .engine import Engine

ENV_API_BASE = "AGENT_API_BASE"
ENV_API_KEY = "AGENT_API_KEY"
ENV_MODEL = "AGENT_MODEL"

# the first element's name, past a byte-order mark, whitespace, <?...?> and <!--...-->
_ROOT_SNIFF = re.compile(r"\ufeff?(?:\s|<\?(?:[^?]|\?(?!>))*\?>|<!--(?:[^-]|-(?!->))*-->)*"
                         r"<(workflow|agents)[\s/>]")


class _Failure(AgentOsError):
    """Operation failure destined for exit code 1."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


def _make_engine(args) -> Engine:
    from .backends import CassetteBackend, HttpBackend
    from .engine import Engine

    if args.cassette_mode == "replay":
        backend = CassetteBackend(args.cassette, "replay")
    elif args.cassette_mode == "record":
        if not args.api_base:
            raise _Failure("E_BACKEND", "recording needs --api-base or AGENT_API_BASE")
        inner = HttpBackend(args.api_base, api_key=args.api_key)
        backend = CassetteBackend(args.cassette, "record", inner=inner)
    else:
        if not args.api_base:
            raise _Failure("E_BACKEND",
                           "no backend configured; set --api-base/AGENT_API_BASE "
                           "or use --cassette-mode replay")
        backend = HttpBackend(args.api_base, api_key=args.api_key)
    return Engine(mode=args.mode, backend=backend, model=args.model)


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _load_form(path: str):
    """Returns (form, its validator), chosen by the root element's name."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise XmlError(f"{path} is not UTF-8: {err}")
    match = _ROOT_SNIFF.match(text)
    if match and match.group(1) == "workflow":
        return parse_workflow_form(text), validate_workflow_form
    return parse_agent_form(text), validate_agent_form


def _cmd_validate(args) -> int:
    from .registry import RegistryStore

    store = RegistryStore(args.registry_root)
    try:
        form, validate = _load_form(args.form)
    except (XmlError, SchemaError) as err:
        _emit(args, [f"{err.code}: {err.message}", "1 diagnostics"],
              {"diagnostics": [{"code": err.code, "location": "",
                                "message": err.message}]})
        return 1
    diagnostics = validate(form, store.view())
    lines = [str(d) for d in diagnostics]
    lines.append(f"{len(diagnostics)} diagnostics")
    _emit(args, lines,
          {"diagnostics": [{"code": d.code, "location": d.location,
                            "message": d.message} for d in diagnostics]})
    return 0 if not diagnostics else 1


def _cmd_run_workflow(args) -> int:
    from .registry import RegistryStore, RegistryToolSuite

    form, _ = _load_form(args.form)
    if not isinstance(form, WorkflowForm):
        raise _Failure("E_SCHEMA", f"{args.form} is not a workflow form")
    store = RegistryStore(args.registry_root)
    engine = _make_engine(args)
    suite = RegistryToolSuite(store, workdir=Path(args.registry_root) / "workspace")
    result = suite.run_workflow(form, args.input, engine, parallel=args.parallel)
    if args.trace:
        Path(args.trace).write_text("\n".join(result.trace) + "\n", encoding="utf-8")
    payload = {"status": result.status, "output": result.output,
               "output_key": result.output_key, "error": result.error,
               "reason": result.reason}
    if result.status == "completed":
        _emit(args, [result.output or ""], payload)
        return 0
    code = result.error or "E_ABORTED"
    _emit(args, [f"{result.status} {code}: {result.reason}"], payload)
    return 1


def _report_lines(report: CreationReport) -> list[str]:
    lines = []
    for record in report.phases:
        status = "ok" if record.ok else "failed"
        lines.append(f"phase {record.phase}: {status} attempts={record.attempts}")
    if report.created_tools:
        lines.append("created tools: " + ", ".join(report.created_tools))
    if report.created_agents:
        lines.append("created agents: " + ", ".join(report.created_agents))
    if report.workflow_name:
        lines.append(f"registered workflow {report.workflow_name}")
    return lines


def _report_payload(report: CreationReport) -> dict:
    return {
        "kind": report.kind,
        "phases": [{"phase": r.phase, "ok": r.ok, "attempts": r.attempts}
                   for r in report.phases],
        "created_tools": report.created_tools,
        "created_agents": report.created_agents,
        "workflow_name": report.workflow_name,
    }


def _creation_setup(args):
    from .creation import ManagementToolSuite
    from .registry import RegistryStore

    store = RegistryStore(args.registry_root)
    engine = _make_engine(args)
    suite = ManagementToolSuite(store, engine=engine,
                                workdir=Path(args.registry_root) / "workspace")
    return store, engine, suite


# creation mode -> the name of its pipeline in agentos.creation, and of that
# pipeline's test argument
_PIPELINES = {"agents": ("create_agents_pipeline", "test_task"),
              "workflow": ("create_workflow_pipeline", "test_input")}


def _pipeline(mode: str):
    """The creation pipeline of ``mode``, looked up when it runs."""
    from . import creation

    return getattr(creation, _PIPELINES[mode][0])


def _cmd_create(args) -> int:
    store, engine, suite = _creation_setup(args)
    mode = args.command.removeprefix("create-")
    report = _pipeline(mode)(args.requirements, engine, store, suite=suite,
                             max_attempts=args.max_attempts, model=args.model,
                             **{_PIPELINES[mode][1]: args.task})
    _emit(args, _report_lines(report), _report_payload(report))
    return 0


def _cmd_registry(args) -> int:
    from .registry import RegistryStore

    store = RegistryStore(args.registry_root)
    kind = args.kind
    if args.action == "list":
        if not store.root.is_dir():
            raise _Failure("E_NOT_FOUND", f"no registry at {args.registry_root}")
        names = store.names(kind)
        _emit(args, names if names else ["(none)"], {kind: names})
        return 0
    if not args.name:
        raise _Failure("E_ARGS", f"registry {args.action} needs a name")
    if args.action == "show":
        record = store.record(kind, args.name)
        _emit(args, [json.dumps(record, sort_keys=True, indent=2)], record)
        return 0
    # delete
    store.delete(kind, args.name)
    singular = kind[:-1]
    _emit(args, [f"deleted {singular} {args.name}"],
          {"deleted": {"kind": singular, "name": args.name}})
    return 0


def _cmd_rag(args) -> int:
    from .ragstore import RagStore  # numpy loads only for the command that needs it

    store = RagStore(args.rag_root)
    if args.action == "add":
        counts = store.ingest(args.collection, args.path)
        lines = [f"indexed {doc_id}: {count} chunks"
                 for doc_id, count in sorted(counts.items())]
        _emit(args, lines, {"indexed": counts})
        return 0
    hits = store.query(args.collection, args.text, k=args.k)
    lines = [f"{hit.score:.4f} {hit.doc_id}:{hit.ordinal} {hit.text}" for hit in hits]
    _emit(args, lines if lines else ["(no results)"],
          {"hits": [{"doc_id": h.doc_id, "ordinal": h.ordinal,
                     "score": h.score, "text": h.text} for h in hits]})
    return 0


def _cmd_repl(args) -> int:
    store, engine, suite = _creation_setup(args)
    mode = "agents"
    transcript: list[str] = []

    def say(line: str) -> None:
        print(line)
        transcript.append(line)

    say(f"mode: {mode} (':mode agents|workflow' to switch, ':quit' to exit)")
    for raw in sys.stdin:
        line = raw.strip()
        transcript.append(f"> {line}")
        if not line:
            continue
        if line == ":quit":
            break
        if line.startswith(":mode"):
            choice = line.split(None, 1)[1].strip() if len(line.split(None, 1)) > 1 else ""
            if choice in _PIPELINES:
                mode = choice
                say(f"mode: {mode}")
            else:
                say("usage: :mode agents|workflow")
            continue
        try:
            report = _pipeline(mode)(line, engine, store, suite=suite, model=args.model)
            for out in _report_lines(report):
                say(out)
        except AgentOsError as err:
            say(f"{err.code}: {err.message}")
    if args.log:
        with open(args.log, "a", encoding="utf-8") as handle:
            handle.write("\n".join(transcript) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _shared_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--registry-root", default="./registry",
                   help="registry directory (default ./registry)")
    p.add_argument("--rag-root", default="./ragstore",
                   help="RAG store directory (default ./ragstore)")
    p.add_argument("--api-base", default="", help="chat completions base URL")
    p.add_argument("--api-key", default="", help="API key (never printed)")
    p.add_argument("--model", default="", help="default model identifier")
    # engine.DIRECT and engine.TRANSFORMED, spelled out so that parsing
    # imports no engine; tests/test_cli.py holds the two equal
    p.add_argument("--mode", choices=["direct", "transformed"], default="transformed",
                   help="tool-use engine mode")
    p.add_argument("--cassette", default="", help="cassette file path")
    p.add_argument("--cassette-mode", choices=["off", "record", "replay"], default="off")
    p.add_argument("--json", action="store_true", help="JSON output")


def positive_int(text: str) -> int:
    """An argument type: a whole number of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _validate_arguments(p: argparse.ArgumentParser) -> None:
    _shared_options(p)
    p.add_argument("form", help="path to the XML form")
    p.set_defaults(fn=_cmd_validate)


def _run_workflow_arguments(p: argparse.ArgumentParser) -> None:
    _shared_options(p)
    p.add_argument("form", help="path to the workflow XML")
    p.add_argument("--input", required=True, help="value for the system input")
    p.add_argument("--parallel", action="store_true", help="run ready events concurrently")
    p.add_argument("--trace", default="", help="write the run trace to this file")
    p.set_defaults(fn=_cmd_run_workflow)


def _create_arguments(p: argparse.ArgumentParser, task_help: str) -> None:
    _shared_options(p)
    p.add_argument("--requirements", required=True)
    p.add_argument("--task", default=None, help=task_help)
    p.add_argument("--max-attempts", type=positive_int, default=3)
    p.set_defaults(fn=_cmd_create)


def _registry_arguments(p: argparse.ArgumentParser) -> None:
    _shared_options(p)
    p.add_argument("action", choices=["list", "show", "delete"])
    p.add_argument("kind", choices=["tools", "agents", "workflows"])
    p.add_argument("name", nargs="?", default="")
    p.set_defaults(fn=_cmd_registry)


def _rag_arguments(p: argparse.ArgumentParser) -> None:
    # the shared options follow the action: its parser's defaults would
    # overwrite any read before it
    actions = p.add_subparsers(dest="action", required=True)
    add = actions.add_parser("add")
    _shared_options(add)
    add.add_argument("path", help="file, directory, or zip to index")
    add.add_argument("--collection", required=True)
    add.set_defaults(fn=_cmd_rag, action="add")
    query = actions.add_parser("query")
    _shared_options(query)
    query.add_argument("text", help="query text")
    query.add_argument("--collection", required=True)
    query.add_argument("-k", type=int, default=4)
    query.set_defaults(fn=_cmd_rag, action="query")


def _repl_arguments(p: argparse.ArgumentParser) -> None:
    _shared_options(p)
    p.add_argument("--log", default="", help="append the session transcript here")
    p.set_defaults(fn=_cmd_repl)


# one row per command: its name, its help, and the function that adds its
# arguments, the shared options among them
_COMMANDS = (
    ("validate", "validate an agent or workflow form", _validate_arguments),
    ("run-workflow", "execute a workflow form", _run_workflow_arguments),
    ("create-agents", "run the agent creation pipeline",
     lambda p: _create_arguments(p, "optional smoke-test task")),
    ("create-workflow", "run the workflow creation pipeline",
     lambda p: _create_arguments(p, "optional test input")),
    ("registry", "inspect or edit the registry", _registry_arguments),
    ("rag", "manage RAG collections", _rag_arguments),
    ("repl", "interactive requirement-to-pipeline loop", _repl_arguments),
)
_COMMAND_NAMES = frozenset(row[0] for row in _COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` the top parser and that
    command's parser alone.

    A one-command parser parses that command's arguments as the whole parser
    does; only a top-level usage line, which lists the commands, differs.
    """
    parser = argparse.ArgumentParser(prog="agentos",
                                     description="Agent runtime operator commands.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in _COMMANDS:
        if command is None or command == name:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in _COMMAND_NAMES:
        args, rest = build_parser(argv[0]).parse_known_args(argv)
        if not rest:
            return args
    # help, a top-level usage error, or arguments left over: the whole parser
    # prints them, with its usage line listing every command
    return build_parser().parse_args(argv)


def dispatch_command(argv: list[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as err:
        return int(err.code or 0)
    args.api_base = args.api_base or os.environ.get(ENV_API_BASE, "")
    args.api_key = args.api_key or os.environ.get(ENV_API_KEY, "")
    args.model = args.model or os.environ.get(ENV_MODEL, "")
    if args.cassette_mode != "off" and not args.cassette:
        print("E_ARGS: --cassette-mode needs --cassette", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (AgentOsError, OSError, UnicodeError) as err:
        if not isinstance(err, AgentOsError):  # a file it cannot read or write, or decode
            err = _Failure("E_IO", str(err))
        if args.json:
            payload = {"error": err.code, "message": err.message}
            if isinstance(err, PhaseExhaustedError):
                payload["phase"] = err.phase
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"{err.code}: {err.message}")
        return 1


def main(argv: list[str] | None = None) -> None:
    sys.exit(dispatch_command(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
