"""The registry's stat-validated read cache, its diff-only restore and its
rollback journal.

A store reads, checks and decodes a `.def` again only when the file's stat
signature changed, writes its own changes through to the cache, hands out
fresh objects, and restores a snapshot by writing only what differs. Inside
a mark it journals its own changes, and rolling back rewrites or unlinks
only those. Every step of the state machine below checks the store against
a fresh store of the same root, which has nothing cached.
"""

import contextlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from agentos import registry
from agentos.errors import InvalidDefinitionError, NotFoundError
from agentos.forms import parse_workflow_form
from agentos.kernel import AgentDefinition
from agentos.registry import (
    RegistryStore,
    RegistryToolSuite,
    ToolDefinition,
    ToolParam,
    builtin_tool,
)
from agentos.storage import is_entry_name

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
        # the journal's oracle, kept from the files alone: the entries at the
        # mark, each entry's bytes before the store's first change since the
        # mark or the last rollback (None: absent), and whether another writer
        # changed an entry since the mark
        self.marks = contextlib.ExitStack()
        self.marked: dict | None = None
        self.first: dict[str, bytes | None] = {}
        self.seen: dict[str, bytes] = {}
        self.outside = False
        for name in ("put_tool", "put_agent", "put_workflow", "delete", "restore"):
            setattr(self.store, name, self._observed(getattr(self.store, name)))

    def _observed(self, method):
        def call(*args, **kwargs):
            before = _disk(self.root)
            try:
                return method(*args, **kwargs)
            finally:
                if self.marked is not None:
                    self.outside |= before != self.seen
                    self.seen = _disk(self.root)
                    for rel in before.keys() | self.seen.keys():
                        if before.get(rel) != self.seen.get(rel):
                            self.first.setdefault(rel, before.get(rel))
        return call

    def teardown(self):
        self.marks.close()
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
            value.description = "changed"
            value.parameters.append(ToolParam("changed"))
            for param in value.parameters:
                param.required = "changed"
            for param in RegistryToolSuite(self.store).schema(name).parameters:
                param.description = "changed"
        elif kind == "agents":
            value.model = "changed"
            value.tool_names.append("changed")
            value.transfer_targets.append("changed")
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

    @precondition(lambda self: self.marked is None)
    @rule()
    def open_mark(self):
        self.marks.enter_context(self.store.mark())
        self.marked = self.seen = self.store.snapshot()
        self.first, self.outside = {}, False

    @precondition(lambda self: self.marked is not None)
    @rule(data=st.data())
    def write_back_old_bytes(self, data):
        if not self.marked:
            return
        rel = data.draw(st.sampled_from(sorted(self.marked)))
        self.store.restore({**self.store.snapshot(), rel: self.marked[rel]})

    @precondition(lambda self: self.marked is not None)
    @rule()
    def roll_back(self):
        self.outside |= _disk(self.root) != self.seen
        expected = {rel: data for rel, data in {**_disk(self.root), **self.first}.items()
                    if data is not None}
        self.store.rollback()
        assert self.store.snapshot() == expected
        if not self.outside:
            assert expected == self.marked
        self.first, self.seen = {}, expected

    @precondition(lambda self: self.marked is not None)
    @rule()
    def close_mark(self):
        self.marks.close()
        self.marked = None

    @invariant()
    def agrees_with_a_fresh_store(self):
        assert _view(self.store) == _view(RegistryStore(self.root))

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
# rollback writes only what differs
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
    snap = store.snapshot()
    with store.mark():
        store.get_tool("echo")
        store.rollback()
    assert writes == []
    assert store.snapshot() == snap


def test_rollback_after_one_change_writes_once(store, writes):
    snap = store.snapshot()
    with store.mark():
        store.put_tool(builtin_tool("echo"))  # version 2
        store.put_agent(AgentDefinition(name="Extra"))  # a new entry: unlinked, not written
        writes.clear()
        store.rollback()
    assert writes == [os.path.join(store.root, "tools", "echo.def")]
    assert store.snapshot() == snap
    assert store.names("agents") == ["Helper"]


def test_rollback_leaves_byte_equal_entries_untouched(store):
    snap = store.snapshot()
    path = store.root / "tools" / "echo.def"
    untouched = store.root / "tools" / "list_directory.def"
    before = untouched.stat()
    with store.mark():
        store.delete("tools", "echo")
        assert store.put_tool(builtin_tool("echo")) == 1  # journalled, back to its bytes
        store.delete("tools", "arithmetic_eval")
        rewritten = path.stat()
        store.rollback()
    for file, stat in ((path, rewritten), (untouched, before)):
        after = file.stat()
        assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
    assert store.snapshot() == snap


def test_rollback_undoes_a_restore_made_inside_the_mark(store):
    snap = store.snapshot()
    with store.mark():
        store.restore({})  # unlinks every entry
        store.put_tool(builtin_tool("echo"))
        store.rollback()
    assert store.snapshot() == snap


def test_rollback_leaves_what_another_writer_changed(store):
    other = RegistryStore(store.root)
    with store.mark():
        store.put_agent(AgentDefinition(name="Mine"))
        other.put_agent(AgentDefinition(name="Theirs"))
        other.put_tool(builtin_tool("echo"))  # version 2, by the other store
        store.rollback()
        assert store.names("agents") == ["Helper", "Theirs"]
        assert store.record("tools", "echo")["version"] == 2
        # a rollback empties the journal: the next one starts from what it left
        store.put_tool(builtin_tool("list_directory"))
        store.rollback()
        other.put_tool(builtin_tool("list_directory"))
        store.rollback()
    assert store.record("tools", "list_directory")["version"] == 2


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
    tool = store.get_tool("echo")
    tool.parameters[0].description = "changed"
    tool.parameters.append(ToolParam("more"))
    RegistryToolSuite(store).schema("echo").parameters[0].required = False
    agent = store.get_agent("Helper")
    agent.tool_names.append("changed")
    agent.transfer_targets.append("changed")
    record = store.record("tools", "echo")
    record["parameters"][0]["name"] = "changed"
    assert store.get_tool("echo") == builtin_tool("echo")
    assert store.get_agent("Helper") == AgentDefinition(name="Helper", tool_names=["echo"])
    assert store.record("tools", "echo")["parameters"][0]["name"] == "text"


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
