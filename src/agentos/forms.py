"""Creation forms: the XML contracts between profiling agents and the runtime.

Two document kinds share one strict reader and one writer over schema tables:

* agent form  — root ``<agents>``: what agents to build, with what tools.
* workflow form — root ``<workflow>``: an event graph wiring agents together.

Parsing is structural (unknown elements and attributes are rejected with a
path); rule checking is separate and returns Diagnostic lists so creation
pipelines can feed them back verbatim. DOCTYPE/entity declarations are
rejected before the reader ever sees them.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple

from . import naming
from .errors import ActionTypeError, SchemaError, UnboundVariableError, XmlError

ACTION_TYPES = ("RESULT", "ABORT", "GOTO")
ON_START = "on_start"

_DTD_RE = re.compile(r"<!(?:DOCTYPE|ENTITY)", re.IGNORECASE)
# what ET.tostring escapes in an attribute value besides & < >
_ATTR_ESCAPES = str.maketrans({'"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------

@dataclass
class KeyDesc:
    key: str
    description: str = ""


@dataclass
class IOSlot:
    """A key/description holder. The schema wants exactly one pair; the
    parser keeps them all so validation can report the excess (A1/V9)."""

    pairs: list[KeyDesc] = field(default_factory=list)
    path: str = ""

    @property
    def key(self) -> str:
        return self.pairs[0].key if self.pairs else ""

    @property
    def description(self) -> str:
        return self.pairs[0].description if self.pairs else ""


@dataclass
class GlobalVar:
    key: str
    description: str = ""
    value: str = ""


@dataclass
class ToolRef:
    name: str
    description: str = ""


@dataclass
class AgentSpec:
    name: str
    description: str
    instructions: str
    tools_existing: list[ToolRef] = field(default_factory=list)
    tools_new: list[ToolRef] = field(default_factory=list)
    agent_input: IOSlot = field(default_factory=IOSlot)
    agent_output: IOSlot = field(default_factory=IOSlot)
    path: str = ""


@dataclass
class AgentForm:
    system_input: str
    system_output: IOSlot
    global_variables: list[GlobalVar] = field(default_factory=list)
    agents: list[AgentSpec] = field(default_factory=list)


@dataclass
class ActionSpec:
    type: str
    value: str | None = None


@dataclass
class OutputSpec:
    key: str
    description: str = ""
    condition: str | None = None
    action: ActionSpec = field(default_factory=lambda: ActionSpec("RESULT"))
    path: str = ""


@dataclass
class EventAgentRef:
    name: str
    model: str = ""


@dataclass
class EventSpec:
    name: str
    inputs: list[KeyDesc] = field(default_factory=list)
    task: str | None = None
    outputs: list[OutputSpec] = field(default_factory=list)
    listen: list[str] = field(default_factory=list)
    agent: EventAgentRef | None = None
    path: str = ""


@dataclass
class WorkflowAgentDecl:
    name: str
    category: str  # "existing" | "new"
    description: str = ""
    tools: list[ToolRef] = field(default_factory=list)
    path: str = ""


@dataclass
class WorkflowForm:
    name: str
    system_input: IOSlot
    system_output: IOSlot
    agents: list[WorkflowAgentDecl] = field(default_factory=list)
    global_variables: list[GlobalVar] = field(default_factory=list)
    events: list[EventSpec] = field(default_factory=list)


@dataclass
class Diagnostic:
    code: str
    message: str
    location: str

    def __str__(self) -> str:
        return f"{self.code} {self.location}: {self.message}"


@dataclass(frozen=True)
class RegistryView:
    """Name sets a validator needs; built by RegistryStore.view()."""

    tool_names: frozenset = frozenset()
    agent_names: frozenset = frozenset()
    workflow_names: frozenset = frozenset()


# ---------------------------------------------------------------------------
# schema tables, and the one reader and one writer that walk them
# ---------------------------------------------------------------------------

class _Leaf(NamedTuple):
    """Text without attributes or children; ``check`` converts it or raises
    ValueError. A ``lazy`` leaf goes to its record's check unread."""

    check: Callable[[str], object] | None = None
    lazy: bool = False


class _Slot(NamedTuple):
    """``<key>``/``<description>`` pairs: an IOSlot, or a KeyDesc if ``one``."""

    one: bool = False


class _Holder(NamedTuple):
    """A container of one repeated child. With a ``category`` it accepts that
    attribute with any value, and is written with this one."""

    tag: str
    kind: object
    category: str | None = None


class _Record:
    """An element read into ``make(**values)`` from ``fields``, each
    ``(tag, field, multiplicity 1|?|*|+, kind)`` in schema order. A dict
    field maps the ``category`` attribute to the field each element fills.
    With ``categories`` the record's own ``category`` must be one of them.
    ``check(values, path)`` runs after the fields and may fix values."""

    def __init__(self, make, fields, check=None, categories=()):
        self.make, self.fields, self.check, self.categories = make, fields, check, categories
        self.tags = {entry[0] for entry in fields}
        self.keeps_path = "path" in getattr(make, "__dataclass_fields__", ())


def _rule(holds: Callable[[str], bool], message: str) -> _Leaf:
    """A leaf whose text must satisfy ``holds``; ``message`` formats it."""
    def check(text: str) -> str:
        if not holds(text):
            raise ValueError(message.format(text))
        return text
    return _Leaf(check)


def _identifier(label: str) -> _Leaf:
    return _rule(naming.is_identifier, label + " is not an identifier: {!r}")


def _action(values: dict, path: str) -> None:
    if values["type"] not in ACTION_TYPES:
        raise ActionTypeError(f"{path}/type[1]", f"unknown action type: {values['type']!r}")
    value = values.pop("value", None)  # RESULT/ABORT: tolerated, never read
    if values["type"] == "GOTO":
        if value is None:
            raise SchemaError(path, "GOTO action requires a <value>")
        values["value"] = _read(_LEAF, value, path, 1)


def _has_output(values: dict, path: str) -> None:
    if not values["outputs"]:
        raise SchemaError(f"{path}/outputs[1]", "event must declare at least one output")


def _unique_events(values: dict, path: str) -> None:
    seen: set[str] = set()
    for event in values["events"]:
        if event.name in seen:
            raise SchemaError(event.path, f"duplicate event name: {event.name}")
        seen.add(event.name)


_LEAF = _Leaf()
_SLOT = _Slot()
_NAME = _rule(bool, "agent name must be nonempty")
_PAIRS = _Record(dict, (("key", "key", "+", _identifier("key")),
                       ("description", "description", "*", _LEAF)))
_TOOLS = _Holder("tool", _Record(ToolRef, (
    ("name", "name", "1", _identifier("tool name")),
    ("description", "description", "1", _LEAF),
)), "new")
_VARIABLES = _Holder("variable", _Record(GlobalVar, (
    ("key", "key", "1", _identifier("variable key")),
    ("description", "description", "?", _LEAF),
    ("value", "value", "?", _LEAF),
)))

_AGENT_FORM = _Record(AgentForm, (
    ("system_input", "system_input", "1", _LEAF),
    ("system_output", "system_output", "1", _SLOT),
    ("global_variables", "global_variables", "?", _VARIABLES),
    ("agent", "agents", "+", _Record(AgentSpec, (
        ("name", "name", "1", _NAME),
        ("description", "description", "1", _LEAF),
        ("instructions", "instructions", "1", _LEAF),
        ("tools", {"existing": "tools_existing", "new": "tools_new"}, "*", _TOOLS),
        ("agent_input", "agent_input", "1", _SLOT),
        ("agent_output", "agent_output", "1", _SLOT),
    ))),
))

_OUTPUT = _Record(OutputSpec, (
    ("key", "key", "1", _identifier("output key")),
    ("description", "description", "?", _LEAF),
    ("condition", "condition", "?", _Leaf(lambda text: text or None)),
    ("action", "action", "1", _Record(ActionSpec, (
        ("type", "type", "1", _LEAF),
        ("value", "value", "?", _Leaf(lazy=True)),
    ), _action)),
))
_EVENT = _Record(EventSpec, (
    ("name", "name", "1", _identifier("event name")),
    ("inputs", "inputs", "?", _Holder("input", _Slot(one=True))),
    ("task", "task", "?", _LEAF),
    ("outputs", "outputs", "1", _Holder("output", _OUTPUT)),
    ("listen", "listen", "?", _Holder("event", _LEAF)),
    ("agent", "agent", "?", _Record(EventAgentRef, (
        ("name", "name", "1", _LEAF),
        ("model", "model", "1", _LEAF),
    ))),
), _has_output)
_WORKFLOW_FORM = _Record(WorkflowForm, (
    ("name", "name", "1", _LEAF),
    ("system_input", "system_input", "1", _SLOT),
    ("system_output", "system_output", "1", _SLOT),
    ("agents", "agents", "1", _Holder("agent", _Record(WorkflowAgentDecl, (
        ("name", "name", "1", _NAME),
        ("description", "description", "?", _LEAF),
        ("tools", "tools", "*", _TOOLS),
    ), categories=("existing", "new")))),
    ("global_variables", "global_variables", "?", _VARIABLES),
    ("events", "events", "1", _Holder("event", _EVENT)),
), _unique_events)


def _load_root(text: str, expected: str) -> ET.Element:
    if _DTD_RE.search(text):
        raise XmlError("DOCTYPE/entity declarations are not allowed")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        raise XmlError(f"not well-formed XML: {err}")
    if root.tag != expected:
        raise SchemaError(f"/{root.tag}", f"expected root <{expected}>")
    return root


def _read(kind, elem: ET.Element, parent: str, index: int):
    """Read ``elem``, the ``index``-th of its tag under ``parent``.

    The first error wins: attributes, then unknown children in document
    order, then the fields in schema order depth first, then the record's
    check. A leaf builds its path only when it is refused.
    """
    if type(kind) is _Leaf:
        if kind.lazy:
            return elem
        try:
            if len(elem):
                raise ValueError("unexpected nested elements")
            for attr in elem.keys():  # .attrib would give each element a dict
                raise ValueError(f"unexpected attribute {attr!r}")
            text = (elem.text or "").strip()
            return text if kind.check is None else kind.check(text)
        except ValueError as err:
            raise SchemaError(f"{parent}/{elem.tag}[{index}]", str(err)) from None
    path = f"{parent}/{elem.tag}[{index}]"
    if type(kind) is _Slot:
        values = _record(_PAIRS, elem, path)
        keys, descriptions = values["key"], values.get("description", ())
        if len(keys) != len(descriptions):
            raise SchemaError(path, "keys and descriptions must pair up")
        pairs = [KeyDesc(k, d) for k, d in zip(keys, descriptions)]
        if kind.one and len(pairs) != 1:
            raise SchemaError(path, "expected exactly one key/description pair")
        return pairs[0] if kind.one else IOSlot(pairs, path)
    if type(kind) is _Holder:
        _refuse_attrs(elem, path, kind.category, f"unexpected attribute on <{elem.tag}>")
        children = list(elem)
        for child in children:
            if child.tag != kind.tag:
                raise SchemaError(f"{path}/{child.tag}", "unexpected element")
        return [_read(kind.kind, child, path, i) for i, child in enumerate(children, 1)]
    return _record(kind, elem, path)


def _refuse_attrs(elem: ET.Element, path: str, category, message: str = "") -> None:
    """Refuse every attribute but ``category`` where one is allowed; there,
    ``message`` (if given) replaces the default error."""
    for attr in elem.keys():
        if attr != "category" or not category:
            raise SchemaError(path, category and message or f"unexpected attribute {attr!r}")


def _category(elem: ET.Element, path: str, allowed) -> str:
    value = elem.get("category")
    if value not in allowed:
        raise SchemaError(path, f"{elem.tag} category must be {'|'.join(allowed)}, got {value!r}")
    return value


def _record(rec: _Record, elem: ET.Element, path: str):
    values = {"category": _category(elem, path, rec.categories)} if rec.categories else {}
    _refuse_attrs(elem, path, rec.categories)
    grouped: dict[str, list[ET.Element]] = {}
    for child in elem:
        if child.tag not in rec.tags:
            raise SchemaError(f"{path}/{child.tag}", "unexpected element")
        grouped.setdefault(child.tag, []).append(child)
    for tag, name, mult, kind in rec.fields:
        items = grouped.get(tag)
        if items is None:
            if mult in "1+":
                raise SchemaError(path, f"missing <{tag}>")
        elif mult in "1?":
            if len(items) > 1:
                raise SchemaError(f"{path}/{tag}[2]", f"duplicate <{tag}>")
            values[name] = _read(kind, items[0], path, 1)
        elif type(name) is dict:  # each goes to the field its category names
            for i, item in enumerate(items, 1):
                read = _read(kind, item, path, i)
                field_name = name[_category(item, f"{path}/{tag}[{i}]", name)]
                values.setdefault(field_name, []).extend(read)
        else:
            read = [_read(kind, item, path, i) for i, item in enumerate(items, 1)]
            values[name] = [x for part in read for x in part] if type(kind) is _Holder else read
    if rec.check is not None:
        rec.check(values, path)
    if rec.keeps_path:
        values["path"] = path
    return rec.make(**values)


def parse_agent_form(text: str) -> AgentForm:
    return _record(_AGENT_FORM, _load_root(text, "agents"), "/agents")


def parse_workflow_form(text: str) -> WorkflowForm:
    return _record(_WORKFLOW_FORM, _load_root(text, "workflow"), "/workflow")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write(kind, out: list[str], tag: str, value, pad: str) -> None:
    """Append ``value`` as a ``tag`` element on a new line indented by ``pad``,
    as ``ET.indent`` with four spaces and ``ET.tostring`` would write it."""
    if type(kind) is _Leaf:
        out.append(f"{pad}<{tag}>{_escape(value)}</{tag}>" if value else f"{pad}<{tag} />")
        return
    # a holder's own category, or a record's category field
    category = getattr(kind, "category", None) or getattr(value, "category", None)
    attrs = "" if category is None else f' category="{_escape(category).translate(_ATTR_ESCAPES)}"'
    start = len(out)
    out.append(f"{pad}<{tag}{attrs}>")
    inner = pad + "    "
    if type(kind) is _Slot:
        for pair in [value] if kind.one else value.pairs:
            _write(_LEAF, out, "key", pair.key, inner)
            _write(_LEAF, out, "description", pair.description, inner)
    elif type(kind) is _Holder:
        for item in value:
            _write(kind.kind, out, kind.tag, item, inner)
    else:
        for ftag, name, mult, fkind in kind.fields:
            if type(name) is dict:
                for category, field_name in name.items():
                    items = getattr(value, field_name)
                    if items:
                        _write(fkind._replace(category=category), out, ftag, items, inner)
                continue
            item = getattr(value, name)
            if type(fkind) is not _Holder and mult in "*+":
                for one in item:
                    _write(fkind, out, ftag, one, inner)
            elif item or item == "" or mult == "1":  # an optional None or [] is left out
                _write(fkind, out, ftag, item, inner)
    if len(out) == start + 1:
        out[start] = f"{pad}<{tag}{attrs} />"
    else:
        out.append(f"{pad}</{tag}>")


def _to_xml(rec: _Record, tag: str, form) -> str:
    out: list[str] = []
    _write(rec, out, tag, form, "\n")
    return "".join(out)[1:] + "\n"


def agent_form_to_xml(form: AgentForm) -> str:
    return _to_xml(_AGENT_FORM, "agents", form)


def workflow_form_to_xml(form: WorkflowForm) -> str:
    return _to_xml(_WORKFLOW_FORM, "workflow", form)


# ---------------------------------------------------------------------------
# rule checks: A1-A5 on agent forms, V1-V10 on workflow forms
# ---------------------------------------------------------------------------

def validate_agent_form(form: AgentForm, registry: RegistryView | None = None) -> list[Diagnostic]:
    """Rule checks A1-A5. Empty list means the form is accepted."""
    out: list[Diagnostic] = []

    # A1: exactly one key/description pair per I/O slot
    slots = [(form.system_output, "system_output")]
    for agent in form.agents:
        slots.append((agent.agent_input, f"{agent.path} agent_input"))
        slots.append((agent.agent_output, f"{agent.path} agent_output"))
    for slot, label in slots:
        if len(slot.pairs) != 1:
            out.append(Diagnostic(
                "A1", f"expected exactly one key/description pair, found {len(slot.pairs)}",
                slot.path or label))

    # A2: instruction placeholders resolve against global variables
    gkeys = {v.key for v in form.global_variables}
    for agent in form.agents:
        missing = [k for k in dict.fromkeys(naming.placeholders(agent.instructions))
                   if k not in gkeys]
        for key in missing:
            out.append(Diagnostic(
                "A2", f"instructions reference undefined global {{{key}}}",
                f"{agent.path}/instructions"))

    # A3: existing tools must resolve in the registry
    if registry is not None:
        for agent in form.agents:
            for tool in agent.tools_existing:
                if tool.name not in registry.tool_names:
                    out.append(Diagnostic(
                        "A3", f"existing tool not in registry: {tool.name}",
                        f"{agent.path}/tools"))

    # A4: agent names unique within the form
    seen: dict[str, str] = {}
    for agent in form.agents:
        if agent.name in seen:
            out.append(Diagnostic(
                "A4", f"duplicate agent name: {agent.name}", agent.path))
        seen.setdefault(agent.name, agent.path)

    # A5: single-agent forms must surface the agent's output as the system output
    if len(form.agents) == 1 and form.agents[0].agent_output.pairs and form.system_output.pairs:
        agent = form.agents[0]
        if agent.agent_output.key != form.system_output.key:
            out.append(Diagnostic(
                "A5",
                "single-agent form: system_output key "
                f"{form.system_output.key!r} != agent_output key {agent.agent_output.key!r}",
                agent.agent_output.path))
    return out

def validate_workflow_form(form: WorkflowForm, registry: RegistryView | None = None) -> list[Diagnostic]:
    """Rule checks V1-V10. Empty list means the form is accepted."""
    out: list[Diagnostic] = []
    events = form.events
    by_name = {e.name: e for e in events}

    # V1: workflow name is a single token, unique against the registry
    if not naming.is_identifier(form.name):
        out.append(Diagnostic(
            "V1", f"workflow name must be a single '_'-separated token: {form.name!r}",
            "/workflow/name"))
    elif registry is not None and form.name in registry.workflow_names:
        out.append(Diagnostic(
            "V1", f"workflow name already registered: {form.name}", "/workflow/name"))

    # V2: the on_start contract
    start = by_name.get(ON_START)
    if not events or events[0].name != ON_START:
        out.append(Diagnostic("V2", "first event must be on_start",
                              events[0].path if events else "/workflow/events"))
    if start is not None:
        if start.agent is not None:
            out.append(Diagnostic("V2", "on_start must not have an agent", start.path))
        if start.task is not None:
            out.append(Diagnostic("V2", "on_start must not have a task", start.path))
        if start.listen:
            out.append(Diagnostic("V2", "on_start must not listen to other events", start.path))
        in_keys = [p.key for p in start.inputs]
        if form.system_input.pairs and in_keys != [form.system_input.key]:
            out.append(Diagnostic(
                "V2", f"on_start inputs must be exactly the system_input key "
                      f"{form.system_input.key!r}", start.path))
        out_keys = [o.key for o in start.outputs]
        if sorted(out_keys) != sorted(in_keys):
            out.append(Diagnostic(
                "V2", "on_start outputs must pass its inputs through", start.path))
        elif any(o.action.type != "RESULT" for o in start.outputs):
            out.append(Diagnostic(
                "V2", "on_start outputs must use the RESULT action", start.path))

    # V3: input keys must be published by some listen-graph ancestor. An
    # event's closure is an int bitmask, one bit per output key, of the keys
    # it or any ancestor produces; closures are gathered along the
    # topological order, and events on or behind a cycle are gathered again
    # until no closure changes.
    graph = listen_graph(events)
    bit: dict[str, int] = {}
    closure = dict.fromkeys(by_name, 0)

    def gather(name: str) -> int:
        mask = 0
        for output in by_name[name].outputs:
            mask |= 1 << bit.setdefault(output.key, len(bit))
        for source in graph.sources[name]:
            mask |= closure[source]
        return mask

    for name in graph.order:
        closure[name] = gather(name)
    pending = list(graph.cyclic)
    while pending:
        name = pending.pop()
        mask = gather(name)
        if mask != closure[name]:
            closure[name] = mask
            pending.extend(graph.listeners[name])
    base = form.system_input.key if form.system_input.pairs else None
    for event in events:
        if event.name == ON_START or not event.inputs:
            continue
        available = 0
        for source in graph.sources[event.name]:
            available |= closure[source]
        for pair in event.inputs:
            if pair.key != base and not (pair.key in bit and available >> bit[pair.key] & 1):
                out.append(Diagnostic(
                    "V3", f"input key {pair.key!r} is not produced by any listened event",
                    event.path))

    # V4: every other event needs a trigger and an agent
    for event in events:
        if event.name == ON_START:
            continue
        if not event.listen:
            out.append(Diagnostic("V4", "event must listen to at least one event", event.path))
        if event.agent is None:
            out.append(Diagnostic("V4", "event must name an agent", event.path))

    # V5: GOTO targets exist and must not listen to the source
    for event in events:
        for output in event.outputs:
            if output.action.type != "GOTO":
                continue
            target = output.action.value or ""
            if target not in by_name:
                out.append(Diagnostic(
                    "V5", f"GOTO target does not exist: {target!r}", output.path))
            elif event.name in by_name[target].listen:
                out.append(Diagnostic(
                    "V5", f"GOTO target {target!r} listens to its source {event.name!r}",
                    output.path))

    # V6: conditional fan-out needs conditions everywhere, at most one RESULT
    for event in events:
        if len(event.outputs) <= 1:
            continue
        for output in event.outputs:
            if not output.condition:
                out.append(Diagnostic(
                    "V6", "every output of a multi-output event needs a condition",
                    output.path))
        results = [o for o in event.outputs if o.action.type == "RESULT"]
        if len(results) > 1:
            out.append(Diagnostic(
                "V6", "at most one output of an event may use the RESULT action",
                event.path))

    # V7: the system output must be publishable
    if form.system_output.pairs:
        published = {o.key for e in events for o in e.outputs if o.action.type == "RESULT"}
        if form.system_output.key not in published:
            out.append(Diagnostic(
                "V7", f"system_output key {form.system_output.key!r} is never published "
                      "by a RESULT output", "/workflow/system_output"))

    # V8: agent references and the placeholders of agent descriptions and
    # event tasks resolve
    declared = {a.name for a in form.agents}
    if registry is not None:
        for decl in form.agents:
            if decl.category == "existing" and decl.name not in registry.agent_names:
                out.append(Diagnostic(
                    "V8", f"existing agent not in registry: {decl.name}", decl.path))
    for event in events:
        if event.agent is None:
            continue
        name = event.agent.name
        known = name in declared or (registry is not None and name in registry.agent_names)
        if not known:
            out.append(Diagnostic(
                "V8", f"event references unknown agent: {name}", event.path))
    gkeys = {v.key for v in form.global_variables}
    texts = [("description", decl.description, decl.path) for decl in form.agents]
    texts += [("task", event.task, event.path) for event in events if event.task]
    for field_name, text, path in texts:
        for key in dict.fromkeys(naming.placeholders(text)):
            if key not in gkeys:
                out.append(Diagnostic(
                    "V8", f"{field_name} references undefined global {{{key}}}",
                    f"{path}/{field_name}"))

    # V9: system I/O slots carry exactly one pair
    for slot, label in ((form.system_input, "/workflow/system_input"),
                        (form.system_output, "/workflow/system_output")):
        if len(slot.pairs) != 1:
            out.append(Diagnostic(
                "V9", f"expected exactly one key/description pair, found {len(slot.pairs)}",
                slot.path or label))

    # V10: the listen graph must be a DAG over known events
    for event in events:
        for source in event.listen:
            if source not in by_name:
                out.append(Diagnostic(
                    "V10", f"listen references unknown event: {source}", event.path))
    if graph.cyclic:
        out.append(Diagnostic(
            "V10", "listen graph contains a cycle through: " + ", ".join(sorted(graph.cyclic)),
            "/workflow/events"))
    return out


class ListenGraph(NamedTuple):
    order: list[str]  # events off every cycle, each after all of its sources
    sources: dict[str, list[str]]  # known listen sources, without repeats
    listeners: dict[str, list[str]]  # events listening to each, in document order
    cyclic: set[str]  # events on a cycle or listening downstream of one


def listen_graph(events: list[EventSpec]) -> ListenGraph:
    """One Kahn pass over the ``<listen>`` edges; unknown sources are ignored.

    A later event of a repeated name replaces the earlier one.
    """
    specs = {e.name: e for e in events}
    sources = {name: [s for s in dict.fromkeys(spec.listen) if s in specs]
               for name, spec in specs.items()}
    listeners: dict[str, list[str]] = {name: [] for name in specs}
    waiting = {}
    for name, known in sources.items():
        waiting[name] = len(known)
        for source in known:
            listeners[source].append(name)
    order = [name for name, count in waiting.items() if not count]
    for name in order:  # the loop also visits the names it appends
        for follower in listeners[name]:
            waiting[follower] -= 1
            if not waiting[follower]:
                order.append(follower)
    return ListenGraph(order, sources, listeners,
                       {name for name, count in waiting.items() if count})


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def substitute_globals(text: str, variables: Mapping[str, str]) -> str:
    """Replace {key} placeholders; ``{{``/``}}`` escape literal braces.

    Raises UnboundVariableError for a placeholder with no binding. Brace
    sequences that do not form a placeholder pass through untouched.
    """
    def replace(match: re.Match) -> str:
        key = match[1]
        if key is None:
            return match[0][0]  # an escape: "{{" -> "{", "}}" -> "}"
        if key not in variables:
            raise UnboundVariableError(f"unbound variable: {{{key}}}")
        return str(variables[key])

    return naming.PLACEHOLDER_SCANNER.sub(replace, text)


def globals_map(variables: Iterable[GlobalVar]) -> dict[str, str]:
    return {v.key: v.value for v in variables}
