"""Persistent registry for tools, agents, and workflows.

Layout: ``<root>/tools/<name>.def``, ``<root>/agents/<name>.def``,
``<root>/workflows/<name>.def``. Every .def file is a single JSON object
with a format_version, written atomically (temp file + rename) so readers
never observe a torn definition. Versions increase strictly per name. A
file that is not such an object, or whose fields have the wrong types, is
an InvalidDefinitionError wherever it is read.

Tool bodies are either references into a small builtin allowlist or script
sources. Scripts never run in-process: without an explicitly configured
runner they fail with E_RUNNER_REFUSED. The provided subprocess runner
starts the script with the working directory as its cwd; it does not
confine the script's file access.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import json
import operator
import os
import selectors
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from . import kernel
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
from .kernel import ToolCall, ToolParam, ToolResult, ToolSchema, check_arguments
from .naming import is_identifier
from .storage import atomic_write, entry_path, is_entry_name
from .storage import signature as _signature  # tests replace it
from .workflow import WorkflowResult, make_agent_resolver, run_workflow

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# definitions
# ---------------------------------------------------------------------------

@dataclass
class ToolDefinition(ToolSchema):
    """A registered tool: its schema, as an engine renders it, and its body."""

    body_kind: str = "builtin"  # "builtin" | "script"
    builtin: str = ""
    source: str = ""
    language: str = "python"

    def __post_init__(self):
        super().__post_init__()
        if not is_identifier(self.name):
            raise InvalidDefinitionError(f"tool name is not an identifier: {self.name!r}")
        seen: set[str] = set()
        for p in self.parameters:
            if not is_identifier(p.name):
                raise InvalidDefinitionError(f"parameter name is not an identifier: {p.name!r}")
            if p.name in seen:
                raise InvalidDefinitionError(f"parameter {p.name!r} is named twice")
            seen.add(p.name)
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


def builtin_tool(name: str) -> ToolDefinition:
    """The ready-made definition for one allowlisted builtin."""
    try:
        description, params, _ = _BUILTINS[name]
    except KeyError:
        raise InvalidDefinitionError(f"unknown builtin: {name!r}")
    return ToolDefinition(name=name, description=description,
                          parameters=list(params), body_kind="builtin", builtin=name)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def _field(record: dict, key: str, default):
    """``record[key]``, or ``default`` when absent; a present value must have
    the type of ``default``."""
    value = record.get(key, default)
    if not isinstance(value, type(default)):
        raise InvalidDefinitionError(
            f"{key!r} holds {type(value).__name__}, expected {type(default).__name__}")
    return value


# A record's fields beside its header: (key, default), or (key, attribute,
# default) where the two names differ; a default fixes a stored value's type.
_PARAM_FIELDS = (("name", ""), ("description", ""), ("required", True))
_BODY_FIELDS = (("kind", "body_kind", "builtin"), ("builtin", "builtin", ""),
                ("source", "source", ""), ("language", "language", "python"))
_AGENT_FIELDS = (("description", ""), ("instructions", ""), ("tool_names", []),
                 ("transfer_targets", []), ("model", ""))


def _encode_tool(tool: ToolDefinition) -> dict:
    return {"description": tool.description,
            "parameters": [{key: getattr(p, key) for key, _ in _PARAM_FIELDS}
                           for p in tool.parameters],
            "body": {key: getattr(tool, attr) for key, attr, _ in _BODY_FIELDS}}


def decode_param(entry: dict) -> ToolParam:
    """One parameter object of a tool record, read with the record's type checks."""
    return ToolParam(**{key: _field(entry, key, default) for key, default in _PARAM_FIELDS})


def _decode_tool(record: dict) -> ToolDefinition:
    body = _field(record, "body", {})
    params = _field(record, "parameters", [])
    if not all(isinstance(p, dict) for p in params):
        raise InvalidDefinitionError("'parameters' is not a list of objects")
    return ToolDefinition(
        name=record["name"],
        description=_field(record, "description", ""),
        parameters=[decode_param(p) for p in params],
        **{attr: _field(body, key, default) for key, attr, default in _BODY_FIELDS})


def _encode_agent(agent: kernel.AgentDefinition) -> dict:
    return {key: getattr(agent, key) for key, _ in _AGENT_FIELDS}


def _decode_agent(record: dict) -> kernel.AgentDefinition:
    return kernel.AgentDefinition(
        name=record["name"],
        **{key: _field(record, key, default) for key, default in _AGENT_FIELDS})


def _workflow_xml(record: dict) -> str:
    if not isinstance(record.get("xml"), str):
        raise InvalidDefinitionError("'xml' is not text")
    return record["xml"]


# folder -> (the "kind" its records carry, decoder: the last step of a record's check)
_KINDS = {
    "tools": ("tool", _decode_tool),
    "agents": ("agent", _decode_agent),
    "workflows": ("workflow", _workflow_xml),
}


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------

class _Entries:
    """Answers ``name in`` with the store's ``has``; it lists nothing."""

    def __init__(self, store: RegistryStore, kind: str):
        self._store, self._kind = store, kind

    def __contains__(self, name: str) -> bool:
        return self._store.has(self._kind, name)


class RegistryStore:
    """Every kind is stored through one path: ``_path`` names the file, ``has``
    stats it, ``names`` lists a folder, ``_read`` checks and decodes a record and
    ``_put`` writes one under its header. A file is read and checked again only
    when its stat signature changed (docs/formats.md); the store's own writes
    go through to that cache. Folders are made on the first write."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._folders = {kind: os.path.join(self.root, kind) for kind in _KINDS}
        # path -> (signature, bytes, checked record or None, value decoded from it),
        # replaced whole; callers see no record, and no value but an immutable agent
        self._cache: dict[str, tuple] = {}
        # kind -> name -> path, for the names whose record was read and checked
        self._paths: dict[str, dict[str, str]] = {kind: {} for kind in _KINDS}
        # inside staged(): path -> the bytes written, None if unlinked; the files are untouched
        self._staged: dict[str, bytes | None] | None = None

    # -- one record path for every kind --------------------------------------

    def _path(self, kind: str, name: str) -> str:
        return entry_path(self._folders[kind], name, _KINDS[kind][0], ".def")

    def _exists(self, path: str) -> bool:
        """Whether ``path`` holds an entry: staged as written, or else a regular file."""
        if path in (self._staged or ()):
            return self._staged[path] is not None
        return os.path.isfile(path)

    def has(self, kind: str, name: str) -> bool:
        """Whether ``name`` is an entry of the kind; a name against the entry-name rule is not."""
        return is_entry_name(name) and self._exists(self._path(kind, name))

    def names(self, kind: str) -> list[str]:
        """The kind's entry names, sorted: the listed and staged names that ``has`` admits."""
        folder = self._folders[kind]
        files = set(os.listdir(folder) if os.path.isdir(folder) else ())
        files.update(os.path.basename(path) for path in self._staged or ()
                     if os.path.dirname(path) == folder)
        return sorted(f[:-4] for f in files if f.endswith(".def") and self.has(kind, f[:-4]))

    def _entry(self, path: str) -> tuple:
        """The cache entry of ``path``: staged, or read again when the file's signature changed."""
        entry = self._cache.get(path)
        if path in (self._staged or ()):
            if entry[1] is None:  # unlinked inside staged()
                raise FileNotFoundError(path)
            return entry
        if entry is None or entry[0] != _signature(os.stat(path)):
            with open(path, "rb") as handle:  # the signature of the file it reads
                entry = (_signature(os.fstat(handle.fileno())), handle.read(), None, None)
            self._cache[path] = entry
        return entry

    def _write(self, path: str, data: bytes | None) -> None:
        """Write ``path``, or unlink it when ``data`` is None; inside staged(), stage either."""
        if self._staged is not None:
            self._staged[path] = data
            self._cache[path] = (None, data, None, None)  # None matches no file: read again after
        elif data is not None:
            self._cache[path] = (_signature(atomic_write(path, data)), data, None, None)
        else:
            self._cache.pop(path, None)
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)

    def _read(self, kind: str, name: str) -> tuple[dict, object]:
        """One entry's checked record and the value decoded from it, as the
        cache holds them: both are checked and decoded once per signature."""
        path = self._paths[kind].get(name) or self._path(kind, name)
        try:
            entry = self._entry(path)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise NotFoundError(f"not in registry: {name}")
        if entry[2] is None:
            expected, decode = _KINDS[kind]
            filename = os.path.basename(path)
            try:
                record = json.loads(entry[1].decode("utf-8"))
            except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, nested too deeply
                raise InvalidDefinitionError(f"{filename} is not JSON: {err}")
            if not isinstance(record, dict) or record.get("format_version") != FORMAT_VERSION \
                    or record.get("kind") != expected or not isinstance(record.get("name"), str) \
                    or type(record.get("version")) is not int:
                raise InvalidDefinitionError(
                    f"{filename} is not a format_version {FORMAT_VERSION} {expected} record "
                    "with a text name and an integer version")
            if record["name"] != name:
                raise InvalidDefinitionError(f"{filename} names the {expected} {record['name']!r}")
            self._cache[path] = entry = (entry[0], entry[1], record, decode(record))
            self._paths[kind][name] = path
        return entry[2], entry[3]

    def record(self, kind: str, name: str) -> dict:
        """One entry's JSON object, checked as every read of it is."""
        return copy.deepcopy(self._read(kind, name)[0])

    def _put(self, kind: str, name: str, fields: dict) -> int:
        """Write ``fields`` under the header, one version above the stored one."""
        try:
            version = self._read(kind, name)[0]["version"] + 1
        except NotFoundError:
            version = 1
        record = {"format_version": FORMAT_VERSION, "kind": _KINDS[kind][0],
                  "name": name, "version": version, **fields}
        self._write(self._path(kind, name),
                    (json.dumps(record, sort_keys=True, indent=2) + "\n").encode())
        return version

    def delete(self, kind: str, name: str) -> None:
        path = self._path(kind, name)
        if not self._exists(path):
            raise NotFoundError(f"not in registry: {name}")
        self._revert({path: None})

    # -- typed entries: one-line calls into the record path --------------------

    def put_tool(self, tool: ToolDefinition) -> int:
        return self._put("tools", tool.name, _encode_tool(tool))
    def get_tool(self, name: str) -> ToolDefinition:
        """A new top-level copy of the cached tool; its parameters are immutable and shared."""
        return copy.copy(self._read("tools", name)[1])

    def put_agent(self, agent: kernel.AgentDefinition) -> int:
        return self._put("agents", agent.name, _encode_agent(agent))
    def get_agent(self, name: str) -> kernel.AgentDefinition:
        return self._read("agents", name)[1]  # shared: an agent is immutable

    def put_workflow(self, form: WorkflowForm) -> int:
        """Register a workflow that validates against this registry. Names are
        create-only; an existing name is rejected the same way rule V1 rejects it."""
        if self._exists(self._path("workflows", form.name)):
            raise InvalidDefinitionError(f"workflow name already registered: {form.name}")
        diagnostics = validate_workflow_form(form, self.view())
        if diagnostics:
            raise InvalidFormError(diagnostics)
        return self._put("workflows", form.name, {"xml": workflow_form_to_xml(form)})

    def get_workflow(self, name: str) -> WorkflowForm:
        return parse_workflow_form(self._read("workflows", name)[1])

    # -- cross-cutting -----------------------------------------------------------

    def view(self) -> RegistryView:
        """Membership of each kind, looked up one name at a time (docs/formats.md)."""
        return RegistryView(**{f"{kind[:-1]}_names": _Entries(self, kind) for kind in _KINDS})

    def snapshot(self) -> dict[str, bytes]:
        """Byte-exact copy of every definition, keyed by kind/name.def."""
        return {f"{kind}/{name}.def": self._entry(os.path.join(folder, f"{name}.def"))[1]
                for kind, folder in self._folders.items() for name in self.names(kind)}

    def restore(self, snap: dict[str, bytes]) -> None:
        """Put the store back exactly as snapshot() captured it, writing only
        the entries whose bytes differ."""
        entries = {os.path.join(folder, f"{name}.def"): None
                   for kind, folder in self._folders.items() for name in self.names(kind)}
        self._revert({**entries, **{os.path.join(self.root, rel): data
                                    for rel, data in snap.items()}})

    @contextlib.contextmanager
    def staged(self):
        """Hold this store's writes and unlinks in memory until the block ends:
        its reads see them, the files and other store objects do not. The block gets
        a commit that writes them and ends the staging; left without it, they drop."""
        staged = self._staged = {}

        def commit() -> None:
            self._staged = None
            self._revert(staged)

        try:
            yield commit
        finally:
            self._staged = None

    def _revert(self, target: dict[str, bytes | None]) -> None:
        """Unlink each path whose target is None and rewrite each other path
        whose bytes differ from its target; a byte-equal entry is left untouched."""
        for path, data in target.items():
            if data is not None:
                with contextlib.suppress(FileNotFoundError):
                    if self._entry(path)[1] == data:
                        continue
            self._write(path, data)


# ---------------------------------------------------------------------------
# builtin implementations
# ---------------------------------------------------------------------------

def _confined(workdir: Path | None, raw: str) -> str:
    """``raw`` resolved under ``workdir``, which is itself already resolved."""
    if workdir is None:
        raise PermissionError("no working directory configured")
    root = os.fspath(workdir)
    path = os.path.realpath(os.path.join(root, raw))
    if path != root and not path.startswith(os.path.join(root, "")):
        raise PermissionError(f"path escapes the working directory: {raw}")
    return path


def _bi_echo(args: dict[str, str], workdir: Path | None) -> ToolResult:
    return ToolResult.ok(args["text"])


# The file builtins raise OSError (PermissionError among them) or ValueError
# (a NUL in a path, text that is not UTF-8); RegistryToolSuite.run reports
# both as E_IO, and so an OSError of the script runner's working directory.

def _bi_read(args: dict[str, str], workdir: Path | None) -> ToolResult:
    with open(_confined(workdir, args["path"]), encoding="utf-8") as handle:
        return ToolResult.ok(handle.read())


def _bi_write(args: dict[str, str], workdir: Path | None) -> ToolResult:
    content = args.get("content", "")
    data = content.encode("utf-8")  # before anything is created
    path = Path(_confined(workdir, args["path"]))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return ToolResult.ok(f"wrote {len(content)} characters")


def _bi_list(args: dict[str, str], workdir: Path | None) -> ToolResult:
    path = Path(_confined(workdir, args.get("path", ".")))
    entries = [child.name + ("/" if child.is_dir() else "")
               for child in sorted(path.iterdir(), key=lambda p: p.name)]
    return ToolResult.ok("\n".join(entries))


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

BUILTIN_TOOLS = tuple(_BUILTINS)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

# The bytes a script may write to stdout and stderr together. Past it the run
# is E_SCRIPT and the script is killed; no more than this is ever kept.
SCRIPT_OUTPUT_LIMIT = 1 << 20
# A script's address space and largest file in bytes, its soft and hard limits.
SCRIPT_MEMORY_LIMIT = 1 << 30
SCRIPT_FILE_LIMIT = 1 << 26
# The longest wait between two checks of whether a script has exited.
_EXIT_POLL_S = 0.05
# Sets the limits, then runs the source that stdin holds behind its length.
_PRELUDE = f"""import os, resource
resource.setrlimit(resource.RLIMIT_AS, ({SCRIPT_MEMORY_LIMIT}, {SCRIPT_MEMORY_LIMIT}))
resource.setrlimit(resource.RLIMIT_FSIZE, ({SCRIPT_FILE_LIMIT}, {SCRIPT_FILE_LIMIT}))
source = os.read(0, int(os.read(0, 16)))
exec(compile(source, "<script>", "exec"), {{"__name__": "__main__", "__file__": "<script>"}})"""


def _capture(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes] | None:
    """``proc``'s stdout and stderr once both close or it exits, or None past
    SCRIPT_OUTPUT_LIMIT bytes; subprocess.TimeoutExpired past ``deadline``.
    Pipes that its children still hold once it exits give what they buffer.
    It selects on the pipes, which ``selectors`` supports on POSIX only."""
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    held, exited = 0, False
    with selectors.DefaultSelector() as selector:
        for fd in chunks:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0 and not exited:
                raise subprocess.TimeoutExpired(proc.args, remaining)
            ready = selector.select(0 if exited else min(remaining, _EXIT_POLL_S))
            if exited and not ready:
                break
            exited = proc.poll() is not None
            for key, _ in ready:
                chunk = os.read(key.fd, min(1 << 16, SCRIPT_OUTPUT_LIMIT + 1 - held))
                held += len(chunk)
                if held > SCRIPT_OUTPUT_LIMIT:
                    return None
                if chunk:
                    chunks[key.fd].append(chunk)
                else:
                    selector.unregister(key.fd)
    proc.wait(max(deadline - time.monotonic(), 0))
    return b"".join(chunks[proc.stdout.fileno()]), b"".join(chunks[proc.stderr.fileno()])


def _script_text(data: bytes) -> str:
    """UTF-8 script output with universal newlines."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


class SubprocessScriptRunner:
    """Run python script tools out of process.

    Protocol: the script reads a JSON object of string arguments from stdin
    and writes its result to stdout; no file is written for it. Nonzero exit,
    timeout, text that is not UTF-8 or more than SCRIPT_OUTPUT_LIMIT bytes of
    output is E_SCRIPT; the interpreter runs isolated (-I) and bounded in the
    workdir, in a new session whose process group is killed when the call ends.
    """

    def __init__(self, workdir: str | os.PathLike, timeout: float = 10.0):
        self.workdir = Path(workdir)
        self.timeout = timeout

    def run(self, tool: ToolDefinition, arguments: dict[str, str]) -> ToolResult:
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            source = tool.source.encode()
            with tempfile.TemporaryFile() as stdin:
                stdin.write(b"%16d%s%s" % (len(source), source, json.dumps(arguments).encode()))
                stdin.seek(0)
                proc = subprocess.Popen([sys.executable, "-I", "-c", _PRELUDE], stdin=stdin,
                                        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                        cwd=str(self.workdir), start_new_session=True)
            with proc:  # closes the pipes and reaps the script
                try:
                    captured = _capture(proc, time.monotonic() + self.timeout)
                finally:
                    # the script's group: the script and every child it left,
                    # whose lives keep the group's id from being reused
                    with contextlib.suppress(ProcessLookupError, PermissionError):
                        os.killpg(proc.pid, signal.SIGKILL)
            if captured is None:
                return ToolResult.fail(
                    E_SCRIPT, f"script output exceeds {SCRIPT_OUTPUT_LIMIT} bytes")
            stdout, stderr = map(_script_text, captured)
        except subprocess.TimeoutExpired:
            return ToolResult.fail(E_SCRIPT, f"script timed out after {self.timeout}s")
        except UnicodeError as err:
            return ToolResult.fail(E_SCRIPT, f"script text is not UTF-8: {err}")
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-3:]
            return ToolResult.fail(E_SCRIPT,
                                   f"exit {proc.returncode}: " + " | ".join(tail))
        return ToolResult.ok(stdout.rstrip("\n"))


class RegistryToolSuite:
    """ToolSuite over a RegistryStore: schemas for the kernel, execution with
    argument checking, and the script-runner policy gate.

    The file tools' ``workdir`` is resolved once, here: a relative one against
    the current directory at construction. Every path a call names is
    resolved on each call and must stay inside it, symlinks followed."""

    def __init__(self, store: RegistryStore, runner=None,
                 workdir: str | os.PathLike | None = None):
        self.store = store
        self.runner = runner
        self.workdir = Path(workdir).resolve() if workdir is not None else None

    def schema(self, name: str) -> ToolDefinition:
        return self.store.get_tool(name)

    def run_workflow(self, form: WorkflowForm, input_value: str, engine, *,
                     parallel: bool = False,
                     limits: kernel.LoopLimits | None = None) -> WorkflowResult:
        """Run ``form`` on this suite's tools, validated against the registry;
        event agents come from the registry first, then from the form."""
        return run_workflow(form, input_value, engine, registry=self.store.view(), tools=self,
                            resolve_agent=make_agent_resolver(form, self, self.store),
                            parallel=parallel, limits=limits)

    def run(self, call: ToolCall) -> ToolResult:
        try:
            tool = self.store._read("tools", call.tool_name)[1]  # the cached tool, never handed out
        except NotFoundError:
            return ToolResult.fail(E_UNKNOWN_TOOL, f"unknown tool: {call.tool_name}")

        failure = check_arguments(tool, call.arguments)
        if failure is not None:
            return failure
        try:
            if tool.body_kind == "builtin":
                return _BUILTINS[tool.builtin][2](dict(call.arguments), self.workdir)
            if self.runner is None:
                return ToolResult.fail(
                    E_RUNNER_REFUSED,
                    "script execution is disabled; configure a script runner")
            return self.runner.run(tool, dict(call.arguments))
        except (OSError, ValueError) as err:
            # named relative to the working directory: the same text under any root
            name = getattr(err, "filename", None)
            if isinstance(name, str) and self.workdir is not None \
                    and Path(name).is_relative_to(self.workdir):
                err.filename = str(Path(name).relative_to(self.workdir))
            return ToolResult.fail(E_IO, str(err))


def make_registry_resolver(store: RegistryStore, form: WorkflowForm, tools=None):
    """``workflow.make_agent_resolver`` over ``store``: registry agents first."""
    return make_agent_resolver(form, tools, store)
