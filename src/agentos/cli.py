"""Command-line operator surface.

Exit codes: 0 success, 1 operation failure, 2 usage error. Output is
line-oriented plain text; ``--json`` switches every command to a single
JSON object on stdout. Nothing printed here ever includes the API key, and
no output line carries a timestamp, so a replayed session is byte-identical
run to run.

Configuration precedence: command-line flags, then the environment
(AGENT_API_BASE, AGENT_API_KEY, AGENT_MODEL), then defaults. Cassette
replay needs no network configuration at all.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .backends import CassetteBackend, HttpBackend
from .creation import (
    CreationReport,
    ManagementToolSuite,
    create_agents_pipeline,
    create_workflow_pipeline,
)
from .engine import DIRECT, TRANSFORMED, Engine
from .errors import (
    AgentOsError,
    PhaseExhaustedError,
    SchemaError,
    XmlError,
)
from .forms import (
    WorkflowForm,
    parse_agent_form,
    parse_workflow_form,
    validate_agent_form,
    validate_workflow_form,
)
from .ragstore import RagStore
from .registry import RegistryStore, RegistryToolSuite

ENV_API_BASE = "AGENT_API_BASE"
ENV_API_KEY = "AGENT_API_KEY"
ENV_MODEL = "AGENT_MODEL"

_ROOT_SNIFF = re.compile(r"<\s*(workflow|agents)[\s>]")


class _Failure(AgentOsError):
    """Operation failure destined for exit code 1."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


def _make_engine(args) -> Engine:
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
    """Returns (form, its validator). Sniffs the root element."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise XmlError(f"{path} is not UTF-8: {err}")
    match = _ROOT_SNIFF.search(text)
    if match and match.group(1) == "workflow":
        return parse_workflow_form(text), validate_workflow_form
    return parse_agent_form(text), validate_agent_form


def _cmd_validate(args) -> int:
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
    store = RegistryStore(args.registry_root)
    engine = _make_engine(args)
    suite = ManagementToolSuite(store, engine=engine,
                                workdir=Path(args.registry_root) / "workspace")
    return store, engine, suite


# each creation mode's pipeline and the name of its test argument
_PIPELINES = {"agents": (create_agents_pipeline, "test_task"),
              "workflow": (create_workflow_pipeline, "test_input")}


def _cmd_create(args) -> int:
    store, engine, suite = _creation_setup(args)
    pipeline, test = _PIPELINES[args.command.removeprefix("create-")]
    report = pipeline(args.requirements, engine, store, suite=suite,
                      max_attempts=args.max_attempts, model=args.model, **{test: args.task})
    _emit(args, _report_lines(report), _report_payload(report))
    return 0


def _cmd_registry(args) -> int:
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
            report = _PIPELINES[mode][0](line, engine, store, suite=suite, model=args.model)
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

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--registry-root", default="./registry",
                        help="registry directory (default ./registry)")
    common.add_argument("--rag-root", default="./ragstore",
                        help="RAG store directory (default ./ragstore)")
    common.add_argument("--api-base", default="", help="chat completions base URL")
    common.add_argument("--api-key", default="", help="API key (never printed)")
    common.add_argument("--model", default="", help="default model identifier")
    common.add_argument("--mode", choices=[DIRECT, TRANSFORMED], default=TRANSFORMED,
                        help="tool-use engine mode")
    common.add_argument("--cassette", default="", help="cassette file path")
    common.add_argument("--cassette-mode", choices=["off", "record", "replay"],
                        default="off")
    common.add_argument("--json", action="store_true", help="JSON output")

    parser = argparse.ArgumentParser(prog="agentos",
                                     description="Agent runtime operator commands.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="validate an agent or workflow form")
    p.add_argument("form", help="path to the XML form")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run-workflow", parents=[common],
                       help="execute a workflow form")
    p.add_argument("form", help="path to the workflow XML")
    p.add_argument("--input", required=True, help="value for the system input")
    p.add_argument("--parallel", action="store_true",
                   help="run ready events concurrently")
    p.add_argument("--trace", default="", help="write the run trace to this file")
    p.set_defaults(fn=_cmd_run_workflow)

    for mode, pipeline, task in (("agents", "agent", "optional smoke-test task"),
                                 ("workflow", "workflow", "optional test input")):
        p = sub.add_parser(f"create-{mode}", parents=[common],
                           help=f"run the {pipeline} creation pipeline")
        p.add_argument("--requirements", required=True)
        p.add_argument("--task", default=None, help=task)
        p.add_argument("--max-attempts", type=int, default=3)
        p.set_defaults(fn=_cmd_create)

    p = sub.add_parser("registry", parents=[common],
                       help="inspect or edit the registry")
    p.add_argument("action", choices=["list", "show", "delete"])
    p.add_argument("kind", choices=["tools", "agents", "workflows"])
    p.add_argument("name", nargs="?", default="")
    p.set_defaults(fn=_cmd_registry)

    # no shared options before the action: its parser's defaults would overwrite them
    p = sub.add_parser("rag", help="manage RAG collections")
    rag_sub = p.add_subparsers(dest="action", required=True)
    add = rag_sub.add_parser("add", parents=[common])
    add.add_argument("path", help="file, directory, or zip to index")
    add.add_argument("--collection", required=True)
    add.set_defaults(fn=_cmd_rag, action="add")
    query = rag_sub.add_parser("query", parents=[common])
    query.add_argument("text", help="query text")
    query.add_argument("--collection", required=True)
    query.add_argument("-k", type=int, default=4)
    query.set_defaults(fn=_cmd_rag, action="query")

    p = sub.add_parser("repl", parents=[common],
                       help="interactive requirement-to-pipeline loop")
    p.add_argument("--log", default="", help="append the session transcript here")
    p.set_defaults(fn=_cmd_repl)
    return parser


def dispatch_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
