"""The registry's stat-validated read cache, its diff-only restore and its
staged writes.

A store reads, checks and decodes a `.def` again only when the file's stat
signature changed, writes its own changes through to the cache, hands out
fresh or immutable objects, and restores a snapshot by writing only what
differs. Inside staged() its changes are held in memory: its reads see them,
the files do not change until a commit, and a drop leaves the files as they
were. Every step of the state machine below checks the store against a fresh
store of the same root, which has nothing cached, or, while it stages,
against a fresh store of a copy of the files with the staged changes applied.
"""

import contextlib
import json
import os
import shutil
import tempfile
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from agentos import registry
from agentos.backends import ScriptedBackend
from agentos.engine import DIRECT, Engine
from agentos.errors import InvalidDefinitionError, NotFoundError
from agentos.forms import parse_workflow_form
from agentos.kernel import AgentDefinition, OrchestrationLimits, ToolCall, orchestrate
from agentos.registry import (
    RegistryStore,
    RegistryToolSuite,
    ToolDefinition,
    ToolParam,
    builtin_tool,
)
from agentos.storage import is_entry_name

from conftest import read_fixture
from test_registry_records import GREET_FLOW_XML

NAMES = {"tools": ["t1", "t2"], "agents": ["A1", "A2"], "workflows": ["w1"]}
GETTERS = {"tools": "get_tool", "agents": "get_agent", "workflows": "get_workflow"}
# names that break the entry-name rule: no view holds them
UNUSABLE = [".t1", " t1", "a/b", "t\ud800"]
WORDS = st.sampled_from(["", "a", "b", "ab", "ba", "abc", "Hej ✓"])


def _workflow(name: str):
    """The greeting workflow under ``name``, its agent declared new so that
    it validates against a registry without it."""
    form = parse_workflow_form(GREET_FLOW_XML)
    form.name = name
    form.agents[0].category = "new"
    return form


def _view(store: RegistryStore) -> dict:
    """Everything a store answers about its root, errors included."""
    view = {"snapshot": store.snapshot()}
    members = store.view()
    for kind, names in NAMES.items():
        view[kind] = store.names(kind)
        for name in names:
            view[kind, name, "in view"] = name in getattr(members, f"{kind[:-1]}_names")
            for what, read in (("value", getattr(store, GETTERS[kind])),
                               ("record", lambda n: store.record(kind, n))):
                try:
                    view[kind, name, what] = read(name)
                except (NotFoundError, InvalidDefinitionError) as err:
                    view[kind, name, what] = type(err)
    return view


def _disk(root: Path) -> dict[str, bytes]:
    """Every entry's bytes read straight from the files, keyed as snapshot() keys them."""
    return {f"{path.parent.name}/{path.name}": path.read_bytes()
            for kind in NAMES for path in (root / kind).glob("*.def")
            if is_entry_name(path.name[:-4])}


class RegistryCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp())
        self.root = self.tmp / "registry"
        # files replaced from outside stay linked here, so no inode number
        # the cache may hold comes back within one timestamp tick
        self.kept = self.tmp / "kept"
        self.kept.mkdir()
        self.store = RegistryStore(self.root)
        # a file that another program named against the rule: not an entry
        (self.root / "tools").mkdir(parents=True)
        (self.root / "tools" / f"{UNUSABLE[1]}.def").write_bytes(b"{}")
        self.snaps: list[dict] = []
        # while the store stages: its commit, and the staging's oracle, kept
        # from what the store answers: each entry its changes left different,
        # with the bytes it then showed (None: absent)
        self.stages = contextlib.ExitStack()
        self.commit = None
        self.overlay: dict[str, bytes | None] = {}
        for name in ("put_tool", "put_agent", "put_workflow", "delete", "restore"):
            setattr(self.store, name, self._observed(getattr(self.store, name)))

    def _observed(self, method):
        def call(*args, **kwargs):
            if self.commit is None:
                return method(*args, **kwargs)
            files, before = _disk(self.root), self.store.snapshot()
            try:
                return method(*args, **kwargs)
            finally:
                assert _disk(self.root) == files  # a staged change touches no file
                after = self.store.snapshot()
                for rel in before.keys() | after.keys():
                    if before.get(rel) != after.get(rel):
                        self.overlay[rel] = after.get(rel)
        return call

    def _staged_view(self) -> dict:
        """The view of a fresh store of a copy of the files with the overlay applied."""
        copy = self.tmp / "staged"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.root, copy)
        for rel, data in self.overlay.items():
            if data is None:
                (copy / rel).unlink(missing_ok=True)
            else:
                (copy / rel).parent.mkdir(exist_ok=True)
                (copy / rel).write_bytes(data)
        return _view(RegistryStore(copy))

    def teardown(self):
        self.stages.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    @rule(name=st.sampled_from(NAMES["tools"]), description=WORDS, params=st.integers(0, 2))
    def put_tool(self, name, description, params):
        tool = ToolDefinition(name=name, description=description,
                              parameters=[ToolParam(f"p{i}") for i in range(params)],
                              body_kind="builtin", builtin="echo")
        self._put(self.store.put_tool, tool, "tools", name)

    @rule(name=st.sampled_from(NAMES["agents"]), model=WORDS,
          tools=st.lists(st.sampled_from(NAMES["tools"]), max_size=2, unique=True))
    def put_agent(self, name, model, tools):
        self._put(self.store.put_agent, AgentDefinition(name=name, model=model,
                                                        tool_names=tools), "agents", name)

    @rule(name=st.sampled_from(NAMES["workflows"]))
    def put_workflow(self, name):
        before = self.store.snapshot()
        try:
            assert self.store.put_workflow(_workflow(name)) == 1
        except InvalidDefinitionError:  # already registered, or malformed
            assert self.store.snapshot() == before

    def _put(self, put, value, kind, name):
        before = self.store.snapshot()
        try:
            version = put(value)
        except InvalidDefinitionError:  # over a malformed file: nothing written
            assert self.store.snapshot() == before
            return
        previous = before.get(f"{kind}/{name}.def")
        assert version == (1 if previous is None else json.loads(previous)["version"] + 1)

    @rule(kind=st.sampled_from(sorted(NAMES)), data=st.data())
    def delete(self, kind, data):
        name = data.draw(st.sampled_from(NAMES[kind]))
        existed = name in self.store.names(kind)
        try:
            self.store.delete(kind, name)
        except NotFoundError:
            assert not existed
        assert name not in self.store.names(kind)

    @rule()
    def take_snapshot(self):
        self.snaps.append(self.store.snapshot())

    @precondition(lambda self: self.snaps)
    @rule(data=st.data())
    def restore(self, data):
        snap = data.draw(st.sampled_from(self.snaps))
        self.store.restore(snap)
        assert self.store.snapshot() == snap

    @rule(kind=st.sampled_from(sorted(NAMES)), data=st.data())
    def mutate_what_a_read_returns(self, kind, data):
        name = data.draw(st.sampled_from(NAMES[kind]))
        try:
            value = getattr(self.store, GETTERS[kind])(name)
            record = self.store.record(kind, name)
        except (NotFoundError, InvalidDefinitionError):
            return
        record["version"] = -1
        record.setdefault("tool_names", []).append("changed")
        for param in record.get("parameters", []):
            param["name"] = "changed"
        if kind == "tools":
            # a tool's params are frozen and its parameters a tuple: only its
            # top-level fields can be assigned
            value.description = "changed"
            for param in value.parameters:
                with pytest.raises(FrozenInstanceError):
                    param.required = "changed"
            value.parameters = (*value.parameters, ToolParam("changed"))
            schema = RegistryToolSuite(self.store).schema(name)
            assert not hasattr(schema.parameters, "append")
            schema.name = schema.body_kind = "changed"
        elif kind == "agents":
            # an agent read is the cached agent itself, frozen with tuple
            # fields: nothing of it can be edited
            for key in ("model", "tool_names", "transfer_targets"):
                with pytest.raises(FrozenInstanceError):
                    setattr(value, key, "changed")
            assert not hasattr(value.tool_names, "append")
            assert not hasattr(value.transfer_targets, "append")
        else:
            value.name = "changed"
            value.events.clear()

    @rule(kind=st.sampled_from(sorted(NAMES)), data=st.data(), text=WORDS,
          malformed=st.booleans())
    def replace_from_outside(self, kind, data, text, malformed):
        name = data.draw(st.sampled_from(NAMES[kind]))
        singular = kind[:-1]
        record = {"format_version": 1, "kind": singular, "name": name, "version": 7}
        if kind == "tools":
            record.update(description=text, parameters=[],
                          body={"kind": "builtin", "builtin": "echo"})
        elif kind == "agents":
            record.update(model=text, tool_names=[text])
        else:
            record.update(xml=registry.workflow_form_to_xml(_workflow(name)))
        blob = b"{not json" if malformed else json.dumps(record, indent=2).encode()
        path = self.root / kind / f"{name}.def"
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            os.link(path, self.kept / f"{len(list(self.kept.iterdir()))}")
        tmp = path.with_name(".outside")
        tmp.write_bytes(blob)
        os.replace(tmp, path)

    @precondition(lambda self: self.commit is None)
    @rule()
    def stage(self):
        self.commit = self.stages.enter_context(self.store.staged())
        self.overlay = {}

    @precondition(lambda self: self.commit is not None)
    @rule(data=st.data())
    def write_back_file_bytes(self, data):
        files = _disk(self.root)
        if not files:
            return
        rel = data.draw(st.sampled_from(sorted(files)))
        self.store.restore({**self.store.snapshot(), rel: files[rel]})

    @precondition(lambda self: self.commit is not None)
    @rule()
    def commit_staged(self):
        view = self.store.snapshot()
        self.commit()
        self.stages.close()
        self.commit = None
        assert _disk(self.root) == view

    @precondition(lambda self: self.commit is not None)
    @rule()
    def drop_staged(self):
        files = _disk(self.root)
        self.stages.close()
        self.commit = None
        assert _disk(self.root) == files

    @invariant()
    def agrees_with_a_fresh_store(self):
        if self.commit is None:
            assert _view(self.store) == _view(RegistryStore(self.root))
        else:
            assert _view(self.store) == self._staged_view()

    @invariant()
    def view_membership_agrees_with_the_listing(self):
        members = self.store.view()
        for kind, names in NAMES.items():
            listed = self.store.names(kind)
            held = getattr(members, f"{kind[:-1]}_names")
            for name in names:
                assert (name in held) == (name in listed)
            for name in UNUSABLE:
                assert name not in held and name not in listed


TestRegistryCache = RegistryCacheMachine.TestCase
# 40 runs, or a fifth of the profile's budget where that is more: 400 under
# HYPOTHESIS_PROFILE=fuzz (tests/conftest.py)
TestRegistryCache.settings = settings(max_examples=max(40, settings.default.max_examples // 5),
                                      stateful_step_count=20, deadline=None,
                                      suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# restore and commit write only what differs; a drop writes nothing
# ---------------------------------------------------------------------------

@pytest.fixture
def store(tmp_path):
    store = RegistryStore(tmp_path / "registry")
    for name in ("echo", "arithmetic_eval", "list_directory"):
        store.put_tool(builtin_tool(name))
    store.put_agent(AgentDefinition(name="Helper", tool_names=["echo"]))
    return store


@pytest.fixture
def writes(monkeypatch):
    written = []
    real = registry.atomic_write
    monkeypatch.setattr(registry, "atomic_write",
                        lambda path, data: written.append(os.fspath(path)) or real(path, data))
    return written


def test_restore_after_a_no_op_phase_writes_nothing(store, writes):
    snap = store.snapshot()
    store.get_tool("echo")
    store.restore(snap)
    assert writes == []
    assert store.snapshot() == snap


def test_restore_after_one_change_writes_once(store, writes):
    snap = store.snapshot()
    store.put_tool(builtin_tool("echo"))  # version 2
    store.put_agent(AgentDefinition(name="Extra"))  # a new entry: unlinked, not written
    writes.clear()
    store.restore(snap)
    assert writes == [os.path.join(store.root, "tools", "echo.def")]
    assert store.snapshot() == snap
    assert store.names("agents") == ["Helper"]


def test_restore_leaves_byte_equal_entries_untouched(store):
    snap = store.snapshot()
    path = store.root / "tools" / "echo.def"
    before = path.stat()
    store.delete("tools", "arithmetic_eval")
    store.restore(snap)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert store.snapshot() == snap


def test_rollback_after_a_no_op_phase_writes_nothing(store, writes):
    # a dropped attempt writes nothing, and nor does a commit of no change
    snap = store.snapshot()
    for finish in (lambda commit: None, lambda commit: commit()):
        with store.staged() as commit:
            store.get_tool("echo")
            finish(commit)
    assert writes == []
    assert store.snapshot() == snap


def test_a_dropped_change_writes_nothing_and_a_committed_one_once(store, writes):
    snap = store.snapshot()
    with store.staged():
        store.put_tool(builtin_tool("echo"))  # version 2
        store.put_agent(AgentDefinition(name="Extra"))
        assert store.names("agents") == ["Extra", "Helper"]
    assert writes == []
    assert store.snapshot() == snap
    with store.staged() as commit:
        store.put_tool(builtin_tool("echo"))  # version 2
        commit()
    assert writes == [os.path.join(store.root, "tools", "echo.def")]
    assert store.record("tools", "echo")["version"] == 2


def test_rollback_leaves_byte_equal_entries_untouched(store):
    # a drop touches no file; a commit leaves an entry whose staged bytes equal
    # its file's untouched, with the same inode and mtime
    path = store.root / "tools" / "echo.def"
    untouched = store.root / "tools" / "list_directory.def"
    files = [path, untouched, store.root / "tools" / "arithmetic_eval.def"]
    before = [file.stat() for file in files]
    with store.staged():
        store.delete("tools", "echo")
        store.put_tool(builtin_tool("list_directory"))  # version 2
        store.delete("tools", "arithmetic_eval")
    for file, stat in zip(files, before):
        after = file.stat()
        assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
    snap = store.snapshot()
    with store.staged() as commit:
        store.delete("tools", "echo")
        assert store.put_tool(builtin_tool("echo")) == 1  # staged, back to its bytes
        store.delete("tools", "arithmetic_eval")
        commit()
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before[0].st_ino, before[0].st_mtime_ns)
    assert store.snapshot() == {rel: data for rel, data in snap.items()
                                if rel != "tools/arithmetic_eval.def"}


def test_a_dropped_attempt_undoes_a_restore_made_inside_it(store):
    snap = store.snapshot()
    with store.staged():
        store.restore({})  # unlinks every entry, staged
        assert store.snapshot() == {} and not store.has("tools", "echo")
        store.put_tool(builtin_tool("echo"))
        assert store.names("tools") == ["echo"]
        assert store.record("tools", "echo")["version"] == 1
    assert store.snapshot() == snap
    assert store.record("tools", "echo")["version"] == 1


def test_rollback_leaves_what_another_writer_changed(store):
    other = RegistryStore(store.root)
    with store.staged():
        store.put_agent(AgentDefinition(name="Mine"))
        other.put_agent(AgentDefinition(name="Theirs"))
        other.put_tool(builtin_tool("echo"))  # version 2, by the other store
        # the staging store sees the other's files beside its own staged entry;
        # the other store sees the files only
        assert store.names("agents") == ["Helper", "Mine", "Theirs"]
        assert store.record("tools", "echo")["version"] == 2
        assert other.names("agents") == ["Helper", "Theirs"]
        store.put_tool(builtin_tool("list_directory"))  # version 2, staged
        for _ in range(2):
            other.put_tool(builtin_tool("list_directory"))  # versions 2 and 3
        # a staged entry hides what another writer puts there until the block ends
        assert store.record("tools", "list_directory")["version"] == 2
    assert store.names("agents") == ["Helper", "Theirs"]
    assert store.record("tools", "echo")["version"] == 2
    assert store.record("tools", "list_directory")["version"] == 3


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

def test_a_view_is_live_and_lists_nothing(store, monkeypatch):
    monkeypatch.setattr(os, "listdir", None)
    monkeypatch.setattr(os, "scandir", None)
    view = store.view()
    assert "echo" in view.tool_names and "ghost" not in view.tool_names
    assert "Helper" in view.agent_names and "Helper" not in view.workflow_names
    # each lookup asks the folder: a later change shows in the same view
    store.delete("tools", "echo")
    store.put_agent(AgentDefinition(name="Later"))
    assert "echo" not in view.tool_names and "Later" in view.agent_names


def test_reads_do_not_reopen_unchanged_files(store, monkeypatch):
    opened = []
    monkeypatch.setattr(registry, "open",
                        lambda path, mode: opened.append(path) or open(path, mode),
                        raising=False)
    store.snapshot()
    store.get_tool("echo")
    assert opened == []  # all of it was written by this store
    path = store.root / "tools" / "echo.def"
    tmp = path.with_name(".outside")
    tmp.write_bytes(path.read_bytes().replace(b'"version": 1', b'"version": 5'))
    os.replace(tmp, path)
    assert store.record("tools", "echo")["version"] == 5
    store.snapshot()
    store.get_tool("echo")
    assert opened == [os.fspath(path)]


def test_own_writes_are_seen_whatever_the_file_system_reports(store, monkeypatch):
    # a signature that never changes: only the write-through keeps reads right,
    # as for two puts of one size within one timestamp tick
    monkeypatch.setattr(registry, "_signature", lambda st: ())
    store.get_tool("echo")
    assert store.put_tool(builtin_tool("echo")) == 2
    assert store.record("tools", "echo")["version"] == 2
    snap = store.snapshot()
    store.put_tool(builtin_tool("echo"))
    store.restore(snap)
    assert store.record("tools", "echo")["version"] == 2
    store.delete("tools", "echo")
    with pytest.raises(NotFoundError):
        store.get_tool("echo")


def test_reads_return_fresh_objects(store):
    # each tool read is a new top-level copy whose frozen params it shares
    tool = store.get_tool("echo")
    with pytest.raises(FrozenInstanceError):
        tool.parameters[0].description = "changed"
    assert not hasattr(tool.parameters, "append")
    tool.description = "changed"
    tool.parameters = (*tool.parameters, ToolParam("more"))
    schema = RegistryToolSuite(store).schema("echo")
    with pytest.raises(FrozenInstanceError):
        schema.parameters[0].required = False
    schema.builtin = "arithmetic_eval"
    # an agent read is the shared, frozen agent: it cannot be edited
    agent = store.get_agent("Helper")
    with pytest.raises(FrozenInstanceError):
        agent.tool_names = ("changed",)
    assert not hasattr(agent.tool_names, "append")
    record = store.record("tools", "echo")
    record["parameters"][0]["name"] = "changed"
    assert store.get_tool("echo") == builtin_tool("echo")
    # the suite still runs echo, not the builtin that a copy was given
    assert RegistryToolSuite(store).run(ToolCall("echo", {"text": "1+1"})).payload == "1+1"
    assert store.get_agent("Helper") == AgentDefinition(name="Helper", tool_names=["echo"])
    assert store.record("tools", "echo")["parameters"][0]["name"] == "text"


def test_reads_of_an_unchanged_agent_share_one_frozen_agent(store, monkeypatch):
    built = []
    post_init = AgentDefinition.__post_init__
    monkeypatch.setattr(AgentDefinition, "__post_init__",
                        lambda agent: built.append(agent.name) or post_init(agent))
    reads = [store.get_agent("Helper") for _ in range(5)]
    # the check's decode builds the one agent; a decode per read built 6
    assert built == ["Helper"]
    assert all(read is reads[0] for read in reads)
    with pytest.raises(FrozenInstanceError):
        reads[0].model = "changed"
    RegistryStore(store.root).put_agent(AgentDefinition(name="Helper", model="m2"))
    later = store.get_agent("Helper")
    assert later is not reads[0] and later.model == "m2"
    assert reads[0] == AgentDefinition(name="Helper", tool_names=["echo"])


def test_a_read_name_is_resolved_once_and_absent_names_leave_no_state(store, monkeypatch):
    named = []
    real = registry.entry_path
    monkeypatch.setattr(registry, "entry_path",
                        lambda folder, name, *rest: named.append(name) or real(folder, name, *rest))
    suite = RegistryToolSuite(store)
    store.get_tool("echo")
    assert named == ["echo"]
    for _ in range(3):
        store.get_tool("echo")
        suite.schema("echo")
        assert suite.run(ToolCall("echo", {"text": "x"})).payload == "x"
    assert named == ["echo"]
    held = dict(store._cache), {kind: dict(paths) for kind, paths in store._paths.items()}
    for name in ["ghost", *UNUSABLE]:
        with pytest.raises((NotFoundError, InvalidDefinitionError)):
            store.get_tool(name)
    assert suite.run(ToolCall("ghost", {})).error_kind == "E_UNKNOWN_TOOL"
    assert (store._cache, store._paths) == held


def _decodes(monkeypatch) -> list[str]:
    """The names of the tool records decoded from here on, in order."""
    decoded = []
    kind, decode = registry._KINDS["tools"]
    monkeypatch.setitem(registry._KINDS, "tools",
                        (kind, lambda record: decoded.append(record["name"]) or decode(record)))
    return decoded


SESSION_TOOLS = ["echo", "arithmetic_eval", "read_text_file"]


def _session(root: Path, turns: int) -> int:
    """Tool calls made by one orchestrator-worker session of ``turns`` engine
    steps over a registry of the three session tools."""
    store = RegistryStore(root / "registry")
    for name in SESSION_TOOLS:
        store.put_tool(builtin_tool(name))
    (root / "notes.txt").write_text("notes", encoding="utf-8")
    steps = []
    while len(steps) < turns - 1:
        steps += [ToolCall("transfer_to_worker", {"message": "go"}),
                  ToolCall("echo", {"text": "x"}),
                  ToolCall("arithmetic_eval", {"expression": "1+2"}),
                  ToolCall("read_text_file", {"path": "notes.txt"}),
                  ToolCall("transfer_to_boss", {})]
    steps = steps[:turns - 1] + ["done"]
    boss = AgentDefinition("Boss", tool_names=["echo"], transfer_targets=["Worker"])
    worker = AgentDefinition("Worker", tool_names=SESSION_TOOLS, transfer_targets=["Boss"])
    outcome = orchestrate(boss, [worker], "task", Engine(DIRECT, ScriptedBackend(steps)),
                          RegistryToolSuite(store, workdir=root),
                          OrchestrationLimits(max_turns=turns + 1, max_handoffs=turns))
    assert outcome.kind == "completed"
    results = [t.observation for t in outcome.context
               if t.tool_call is not None and not t.tool_call.tool_name.startswith("transfer_")]
    assert all(result.status == "ok" for result in results)
    return len(results)


def test_a_session_decodes_each_tool_file_once(tmp_path, monkeypatch):
    for turns in (40, 160):
        decoded = _decodes(monkeypatch)
        calls = _session(tmp_path / str(turns), turns)
        # one decode per read made 56 decodes at 40 turns
        assert sorted(decoded) == sorted(SESSION_TOOLS), (turns, calls, len(decoded))
        monkeypatch.undo()


def test_a_registry_workflow_run_decodes_each_tool_once(tmp_path, monkeypatch):
    form = parse_workflow_form(read_fixture("wiki_article_workflow.xml"))
    store = RegistryStore(tmp_path / "registry")
    for name in ("echo", "arithmetic_eval"):
        store.put_tool(builtin_tool(name))
    store.put_agent(AgentDefinition(name="Web Surfer Agent", instructions="Search."))
    store.put_agent(AgentDefinition(name="Outline Agent", instructions="Outline.",
                                    tool_names=["echo", "arithmetic_eval"]))
    reads = []
    get_tool = store.get_tool
    store.get_tool = lambda name: reads.append(name) or get_tool(name)
    decoded = _decodes(monkeypatch)
    engine = Engine(mode="transformed", backend=ScriptedBackend([
        "search result text", "outline v1",
        "needs work\nSELECTED_OUTPUT: negative_feedback",
        "outline v2", "looks good\nSELECTED_OUTPUT: positive_feedback", "final article"]))
    result = RegistryToolSuite(store, workdir=tmp_path).run_workflow(form, "topic", engine)
    assert result.status == "completed"
    assert result.trace.count("run on_outline agent=Outline Agent "
                              "model=claude-3-5-sonnet-20241022") == 2  # the GOTO loop
    # the resolver reads both tools, and so does each of the two runs of on_outline
    assert len(reads) == 6
    assert sorted(decoded) == ["arithmetic_eval", "echo"]


def test_a_malformed_file_fails_every_read(store):
    path = store.root / "tools" / "echo.def"
    tmp = path.with_name(".outside")
    tmp.write_bytes(b"[]")
    os.replace(tmp, path)
    for _ in range(2):
        with pytest.raises(InvalidDefinitionError):
            store.get_tool("echo")
    assert store.snapshot()["tools/echo.def"] == b"[]"


def test_reading_creates_nothing(tmp_path):
    store = RegistryStore(tmp_path / "registry")
    assert store.names("tools") == []
    assert store.snapshot() == {}
    with pytest.raises(NotFoundError):
        store.get_agent("ghost")
    store.restore({})
    assert list(tmp_path.iterdir()) == []
    store.put_agent(AgentDefinition(name="Helper"))
    assert sorted(p.name for p in (tmp_path / "registry").iterdir()) == ["agents"]
