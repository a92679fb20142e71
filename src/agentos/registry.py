"""Persistent registry for tools, agents, and workflows.

Layout: ``<root>/tools/<name>.def``, ``<root>/agents/<name>.def``,
``<root>/workflows/<name>.def``. Every .def file is a single JSON object
with a format_version, written atomically (temp file + rename) so readers
never observe a torn definition. Versions increase strictly per name.

Tool bodies are either references into a small builtin allowlist or script
sources. Scripts never run in-process: without an explicitly configured
runner they fail with E_RUNNER_REFUSED. The provided subprocess runner
starts the script with the working directory as its cwd; it does not
confine the script's file access.
"""

from __future__ import annotations

import ast
import json
import operator
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from . import kernel
from .engine import ToolParam, ToolSchema, check_arguments
from .errors import (
    E_ARGS,
    E_IO,
    E_RUNNER_REFUSED,
    E_SCRIPT,
    E_UNKNOWN_TOOL,
    InvalidDefinitionError,
    InvalidFormError,
    NotFoundError,
)
from .forms import (
    RegistryView,
    WorkflowForm,
    parse_workflow_form,
    validate_workflow_form,
    workflow_form_to_xml,
)
from .kernel import ToolCall, ToolResult
from .naming import is_identifier

FORMAT_VERSION = 1

BUILTIN_TOOLS = ("echo", "read_text_file", "write_text_file",
                 "list_directory", "arithmetic_eval")


# ---------------------------------------------------------------------------
# definitions
# ---------------------------------------------------------------------------

@dataclass
class ToolDefinition:
    name: str
    description: str = ""
    parameters: list[ToolParam] = field(default_factory=list)
    body_kind: str = "builtin"  # "builtin" | "script"
    builtin: str = ""
    source: str = ""
    language: str = "python"

    def __post_init__(self):
        if not is_identifier(self.name):
            raise InvalidDefinitionError(f"tool name is not an identifier: {self.name!r}")
        for p in self.parameters:
            if not is_identifier(p.name):
                raise InvalidDefinitionError(f"parameter name is not an identifier: {p.name!r}")
        if self.body_kind == "builtin":
            if self.builtin not in BUILTIN_TOOLS:
                raise InvalidDefinitionError(f"unknown builtin: {self.builtin!r}")
        elif self.body_kind == "script":
            if not self.source.strip():
                raise InvalidDefinitionError("script tool needs a nonempty source")
            if self.language != "python":
                raise InvalidDefinitionError(f"unsupported script language: {self.language!r}")
        else:
            raise InvalidDefinitionError(f"unknown body kind: {self.body_kind!r}")

    def schema(self) -> ToolSchema:
        return ToolSchema(name=self.name, description=self.description,
                          parameters=self.parameters)


def builtin_tool(name: str) -> ToolDefinition:
    """The ready-made definition for one allowlisted builtin."""
    try:
        description, params, _ = _BUILTINS[name]
    except KeyError:
        raise InvalidDefinitionError(f"unknown builtin: {name!r}")
    return ToolDefinition(name=name, description=description,
                          parameters=list(params), body_kind="builtin", builtin=name)


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------

_KINDS = ("tools", "agents", "workflows")


class RegistryStore:
    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        for kind in _KINDS:
            (self.root / kind).mkdir(parents=True, exist_ok=True)

    # -- plumbing ----------------------------------------------------------

    def _path(self, kind: str, name: str) -> Path:
        if not name or name != name.strip() or "/" in name or "\\" in name \
                or "\x00" in name or name.startswith("."):
            raise InvalidDefinitionError(f"unusable {kind[:-1]} name: {name!r}")
        return self.root / kind / f"{name}.def"

    def _write(self, path: Path, record: dict) -> None:
        data = json.dumps(record, sort_keys=True, indent=2) + "\n"
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".def")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _read(self, path: Path, kind: str) -> dict:
        if not path.is_file():
            raise NotFoundError(f"not in registry: {path.stem}")
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("format_version") != FORMAT_VERSION:
            raise InvalidDefinitionError(
                f"unsupported format_version in {path.name}: {record.get('format_version')!r}")
        if record.get("kind") != kind:
            raise InvalidDefinitionError(
                f"{path.name} holds a {record.get('kind')!r}, expected {kind!r}")
        return record

    def _next_version(self, path: Path, kind: str) -> int:
        if path.is_file():
            return int(self._read(path, kind)["version"]) + 1
        return 1

    def _delete(self, kind: str, name: str) -> None:
        path = self._path(kind, name)
        if not path.is_file():
            raise NotFoundError(f"not in registry: {name}")
        path.unlink()

    def _names(self, kind: str) -> list[str]:
        folder = self.root / kind
        return sorted(p.stem for p in folder.glob("*.def") if not p.name.startswith("."))

    # -- tools --------------------------------------------------------------

    def put_tool(self, tool: ToolDefinition) -> int:
        path = self._path("tools", tool.name)
        version = self._next_version(path, "tool")
        self._write(path, {
            "format_version": FORMAT_VERSION,
            "kind": "tool",
            "name": tool.name,
            "version": version,
            "description": tool.description,
            "parameters": [{"name": p.name, "description": p.description,
                            "required": p.required} for p in tool.parameters],
            "body": {"kind": tool.body_kind, "builtin": tool.builtin,
                     "source": tool.source, "language": tool.language},
        })
        return version

    def get_tool(self, name: str) -> ToolDefinition:
        record = self._read(self._path("tools", name), "tool")
        body = record.get("body", {})
        return ToolDefinition(
            name=record["name"],
            description=record.get("description", ""),
            parameters=[ToolParam(p["name"], p.get("description", ""),
                                  bool(p.get("required", True)))
                        for p in record.get("parameters", [])],
            body_kind=body.get("kind", "builtin"),
            builtin=body.get("builtin", ""),
            source=body.get("source", ""),
            language=body.get("language", "python"),
        )

    def tool_version(self, name: str) -> int:
        return int(self._read(self._path("tools", name), "tool")["version"])

    def list_tools(self) -> list[str]:
        return self._names("tools")

    def delete_tool(self, name: str) -> None:
        self._delete("tools", name)

    # -- agents --------------------------------------------------------------

    def put_agent(self, agent: kernel.AgentDefinition) -> int:
        path = self._path("agents", agent.name)
        version = self._next_version(path, "agent")
        self._write(path, {
            "format_version": FORMAT_VERSION,
            "kind": "agent",
            "name": agent.name,
            "version": version,
            "description": agent.description,
            "instructions": agent.instructions,
            "tool_names": list(agent.tool_names),
            "transfer_targets": list(agent.transfer_targets),
            "model": agent.model,
        })
        return version

    def get_agent(self, name: str) -> kernel.AgentDefinition:
        record = self._read(self._path("agents", name), "agent")
        return kernel.AgentDefinition(
            name=record["name"],
            description=record.get("description", ""),
            instructions=record.get("instructions", ""),
            tool_names=list(record.get("tool_names", [])),
            transfer_targets=list(record.get("transfer_targets", [])),
            model=record.get("model", ""),
        )

    def agent_version(self, name: str) -> int:
        return int(self._read(self._path("agents", name), "agent")["version"])

    def list_agents(self) -> list[str]:
        return self._names("agents")

    def delete_agent(self, name: str) -> None:
        self._delete("agents", name)

    # -- workflows -------------------------------------------------------------

    def put_workflow(self, form: WorkflowForm, validate: bool = True) -> int:
        """Register a workflow. Names are create-only; re-registering an
        existing name is rejected the same way rule V1 rejects it."""
        path = self._path("workflows", form.name)
        if path.is_file():
            raise InvalidDefinitionError(f"workflow name already registered: {form.name}")
        if validate:
            diagnostics = validate_workflow_form(form, self.view())
            if diagnostics:
                raise InvalidFormError(diagnostics)
        self._write(path, {
            "format_version": FORMAT_VERSION,
            "kind": "workflow",
            "name": form.name,
            "version": 1,
            "xml": workflow_form_to_xml(form),
        })
        return 1

    def get_workflow(self, name: str) -> WorkflowForm:
        record = self._read(self._path("workflows", name), "workflow")
        return parse_workflow_form(record["xml"])

    def list_workflows(self) -> list[str]:
        return self._names("workflows")

    def delete_workflow(self, name: str) -> None:
        self._delete("workflows", name)

    # -- cross-cutting -----------------------------------------------------------

    def view(self) -> RegistryView:
        return RegistryView(
            tool_names=frozenset(self.list_tools()),
            agent_names=frozenset(self.list_agents()),
            workflow_names=frozenset(self.list_workflows()),
        )

    def snapshot(self) -> dict[str, bytes]:
        """Byte-exact copy of every definition, keyed by kind/name.def."""
        out: dict[str, bytes] = {}
        for kind in _KINDS:
            folder = self.root / kind
            for path in sorted(folder.glob("*.def")):
                if path.name.startswith("."):
                    continue
                out[f"{kind}/{path.name}"] = path.read_bytes()
        return out

    def restore(self, snap: dict[str, bytes]) -> None:
        """Put the store back exactly as snapshot() captured it."""
        for kind in _KINDS:
            folder = self.root / kind
            for path in folder.glob("*.def"):
                if path.name.startswith("."):
                    continue
                if f"{kind}/{path.name}" not in snap:
                    path.unlink()
        for rel, data in snap.items():
            target = self.root / rel
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".tmp-", suffix=".def")
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, target)


# ---------------------------------------------------------------------------
# builtin implementations
# ---------------------------------------------------------------------------

def _confined(workdir: Path | None, raw: str) -> Path:
    if workdir is None:
        raise PermissionError("no working directory configured")
    base = workdir.resolve()
    path = (base / raw).resolve()
    if path != base and not path.is_relative_to(base):
        raise PermissionError(f"path escapes the working directory: {raw}")
    return path


def _bi_echo(args: dict[str, str], workdir: Path | None) -> ToolResult:
    return ToolResult.ok(args["text"])


def _bi_read(args: dict[str, str], workdir: Path | None) -> ToolResult:
    try:
        path = _confined(workdir, args["path"])
        return ToolResult.ok(path.read_text(encoding="utf-8"))
    except (OSError, PermissionError, UnicodeDecodeError) as err:
        return ToolResult.fail(E_IO, str(err))


def _bi_write(args: dict[str, str], workdir: Path | None) -> ToolResult:
    try:
        path = _confined(workdir, args["path"])
        path.parent.mkdir(parents=True, exist_ok=True)
        content = args.get("content", "")
        path.write_text(content, encoding="utf-8")
        return ToolResult.ok(f"wrote {len(content)} characters")
    except (OSError, PermissionError) as err:
        return ToolResult.fail(E_IO, str(err))


def _bi_list(args: dict[str, str], workdir: Path | None) -> ToolResult:
    try:
        path = _confined(workdir, args.get("path", "."))
        entries = []
        for child in sorted(path.iterdir(), key=lambda p: p.name):
            entries.append(child.name + ("/" if child.is_dir() else ""))
        return ToolResult.ok("\n".join(entries))
    except (OSError, PermissionError) as err:
        return ToolResult.fail(E_IO, str(err))


_ARITH_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}


# An integer result may have at most this many bits (about 3,000 decimal
# digits), which keeps evaluation fast and str() under Python's digit limit.
_ARITH_MAX_BITS = 10_000


def _bi_arith(args: dict[str, str], workdir: Path | None) -> ToolResult:
    expression = args["expression"]

    def evaluate(node):
        if isinstance(node, ast.Expression):
            return evaluate(node.body)
        if isinstance(node, ast.BinOp) and type(node.op) in _ARITH_OPS:
            left, right = evaluate(node.left), evaluate(node.right)
            if isinstance(node.op, ast.Pow):
                if abs(right) > 64:
                    raise ValueError("exponent too large")
                # refuse before computing: a 10,000-bit base to the 64th
                # power takes tens of milliseconds to build
                if isinstance(left, int) and isinstance(right, int) \
                        and left.bit_length() * right > _ARITH_MAX_BITS:
                    raise ValueError("result too large")
            value = _ARITH_OPS[type(node.op)](left, right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = evaluate(node.operand)
            value = value if isinstance(node.op, ast.UAdd) else -value
        elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
                and not isinstance(node.value, bool):
            value = node.value
        else:
            raise ValueError("only numeric literals and + - * / // % ** are allowed")
        if isinstance(value, int) and value.bit_length() > _ARITH_MAX_BITS:
            raise ValueError("result too large")
        return value

    try:
        return ToolResult.ok(str(evaluate(ast.parse(expression, mode="eval"))))
    except (SyntaxError, ValueError, ZeroDivisionError, OverflowError) as err:
        return ToolResult.fail(E_ARGS, f"invalid expression: {err}")
    except (MemoryError, RecursionError):  # how the parser reports nesting too deep for it
        return ToolResult.fail(E_ARGS, "invalid expression: nested too deeply")


_BUILTINS: dict[str, tuple[str, list[ToolParam], object]] = {
    "echo": ("Return the given text unchanged.",
             [ToolParam("text", "Text to return.")], _bi_echo),
    "read_text_file": ("Read a UTF-8 text file from the working directory.",
                       [ToolParam("path", "Relative file path.")], _bi_read),
    "write_text_file": ("Write a UTF-8 text file inside the working directory.",
                        [ToolParam("path", "Relative file path."),
                         ToolParam("content", "File content.", required=False)],
                        _bi_write),
    "list_directory": ("List directory entries; directories get a trailing slash.",
                       [ToolParam("path", "Relative directory path.", required=False)],
                       _bi_list),
    "arithmetic_eval": ("Evaluate a numeric arithmetic expression.",
                        [ToolParam("expression", "Expression such as (2+3)*4.")],
                        _bi_arith),
}


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

class SubprocessScriptRunner:
    """Run python script tools out of process.

    Protocol: the script reads a JSON object of string arguments from stdin
    and writes its result to stdout. Nonzero exit or timeout becomes E_SCRIPT.
    The interpreter runs isolated (-I) with the working directory as cwd.
    """

    def __init__(self, workdir: str | os.PathLike, timeout: float = 10.0):
        self.workdir = Path(workdir)
        self.timeout = timeout

    def run(self, tool: ToolDefinition, arguments: dict[str, str]) -> ToolResult:
        self.workdir.mkdir(parents=True, exist_ok=True)
        # one file per run: concurrent runs of one tool must not share it
        fd, script = tempfile.mkstemp(dir=self.workdir, prefix=f".{tool.name}.",
                                      suffix=".script.py")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(tool.source)
            proc = subprocess.run(
                [sys.executable, "-I", script],
                input=json.dumps(arguments),
                capture_output=True, text=True,
                cwd=str(self.workdir), timeout=self.timeout,
            )
        except subprocess.TimeoutExpired:
            return ToolResult.fail(E_SCRIPT, f"script timed out after {self.timeout}s")
        finally:
            try:
                os.unlink(script)
            except OSError:
                pass
        if proc.returncode != 0:
            tail = (proc.stderr or "").strip().splitlines()[-3:]
            return ToolResult.fail(E_SCRIPT,
                                   f"exit {proc.returncode}: " + " | ".join(tail))
        return ToolResult.ok(proc.stdout.rstrip("\n"))


class RegistryToolSuite:
    """ToolSuite over a RegistryStore: schemas for the kernel, execution with
    argument checking, and the script-runner policy gate."""

    def __init__(self, store: RegistryStore, runner=None,
                 workdir: str | os.PathLike | None = None):
        self.store = store
        self.runner = runner
        self.workdir = Path(workdir) if workdir is not None else None

    def schema(self, name: str) -> ToolSchema:
        return self.store.get_tool(name).schema()

    def run(self, call: ToolCall) -> ToolResult:
        try:
            tool = self.store.get_tool(call.tool_name)
        except NotFoundError:
            return ToolResult.fail(E_UNKNOWN_TOOL, f"unknown tool: {call.tool_name}")

        failure = check_arguments(tool.schema(), call.arguments)
        if failure is not None:
            return failure
        if tool.body_kind == "builtin":
            fn = _BUILTINS[tool.builtin][2]
            return fn(dict(call.arguments), self.workdir)
        if self.runner is None:
            return ToolResult.fail(
                E_RUNNER_REFUSED,
                "script execution is disabled; configure a script runner")
        return self.runner.run(tool, dict(call.arguments))


def make_registry_resolver(store: RegistryStore, form: WorkflowForm, tools=None):
    """Workflow agent resolver that prefers registry agents, then form
    declarations. The event's model override always wins."""
    from .workflow import make_form_resolver

    fallback = make_form_resolver(form, tools)

    def resolve(ref):
        try:
            agent = store.get_agent(ref.name)
        except NotFoundError:
            return fallback(ref)
        if ref.model:
            agent.model = ref.model
        if tools is not None:
            kept = []
            for name in agent.tool_names:
                try:
                    tools.schema(name)
                except NotFoundError:
                    continue
                kept.append(name)
            agent.tool_names = kept
        return agent

    return resolve
