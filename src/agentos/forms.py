"""Creation forms: the XML contracts between profiling agents and the runtime.

Two document kinds share one strict reader:

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
from typing import Iterable, Mapping, NamedTuple

from . import naming
from .errors import ActionTypeError, SchemaError, UnboundVariableError, XmlError

ACTION_TYPES = ("RESULT", "ABORT", "GOTO")
ON_START = "on_start"

_DTD_RE = re.compile(r"<!(?:DOCTYPE|ENTITY)", re.IGNORECASE)


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
# strict reader
# ---------------------------------------------------------------------------

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


def _walk(elem: ET.Element, path: str, allowed: Iterable[str],
          allowed_attrs: Iterable[str] = ()) -> dict[str, list[tuple[ET.Element, str]]]:
    """Group children by tag, assigning 1-based indexed paths; reject strangers."""
    allowed = set(allowed)
    for attr in elem.attrib:
        if attr not in allowed_attrs:
            raise SchemaError(path, f"unexpected attribute {attr!r}")
    grouped: dict[str, list[tuple[ET.Element, str]]] = {tag: [] for tag in allowed}
    counts: dict[str, int] = {}
    for child in elem:
        if child.tag not in allowed:
            raise SchemaError(f"{path}/{child.tag}", "unexpected element")
        counts[child.tag] = counts.get(child.tag, 0) + 1
        grouped[child.tag].append((child, f"{path}/{child.tag}[{counts[child.tag]}]"))
    return grouped


def _one(grouped, tag: str, path: str) -> tuple[ET.Element, str]:
    items = grouped.get(tag, [])
    if not items:
        raise SchemaError(path, f"missing <{tag}>")
    if len(items) > 1:
        raise SchemaError(items[1][1], f"duplicate <{tag}>")
    return items[0]


def _opt(grouped, tag: str):
    items = grouped.get(tag, [])
    if len(items) > 1:
        raise SchemaError(items[1][1], f"duplicate <{tag}>")
    return items[0] if items else None


def _leaf(elem: ET.Element, path: str) -> str:
    if len(elem):
        raise SchemaError(path, "unexpected nested elements")
    _no_attrs(elem, path)
    return (elem.text or "").strip()


def _no_attrs(elem: ET.Element, path: str) -> None:
    for attr in elem.attrib:
        raise SchemaError(path, f"unexpected attribute {attr!r}")


def _children(elem: ET.Element, path: str, tag: str):
    """Yield (child, indexed path) from an attribute-free container of <tag>s."""
    _no_attrs(elem, path)
    for count, child in enumerate(elem, 1):
        if child.tag != tag:
            raise SchemaError(f"{path}/{child.tag}", "unexpected element")
        yield child, f"{path}/{tag}[{count}]"


def _io_slot(elem: ET.Element, path: str) -> IOSlot:
    _no_attrs(elem, path)
    keys: list[str] = []
    descs: list[str] = []
    for child in elem:
        if child.tag == "key":
            keys.append(_leaf(child, f"{path}/key[{len(keys) + 1}]"))
        elif child.tag == "description":
            descs.append(_leaf(child, f"{path}/description[{len(descs) + 1}]"))
        else:
            raise SchemaError(f"{path}/{child.tag}", "unexpected element")
    if not keys:
        raise SchemaError(path, "missing <key>")
    if len(keys) != len(descs):
        raise SchemaError(path, "keys and descriptions must pair up")
    for i, key in enumerate(keys, 1):
        if not naming.is_identifier(key):
            raise SchemaError(f"{path}/key[{i}]", f"key is not an identifier: {key!r}")
    return IOSlot([KeyDesc(k, d) for k, d in zip(keys, descs)], path)


def _key_desc(elem: ET.Element, path: str) -> KeyDesc:
    slot = _io_slot(elem, path)
    if len(slot.pairs) != 1:
        raise SchemaError(path, "expected exactly one key/description pair")
    return slot.pairs[0]


def _tool_list(elem: ET.Element, path: str) -> list[ToolRef]:
    """Read a ``<tools>`` element; its only allowed attribute is ``category``."""
    if set(elem.attrib) - {"category"}:
        raise SchemaError(path, "unexpected attribute on <tools>")
    out = []
    count = 0
    for child in elem:
        if child.tag != "tool":
            raise SchemaError(f"{path}/{child.tag}", "unexpected element")
        count += 1
        tpath = f"{path}/tool[{count}]"
        grouped = _walk(child, tpath, ("name", "description"))
        name_el, npath = _one(grouped, "name", tpath)
        desc_el, dpath = _one(grouped, "description", tpath)
        name = _leaf(name_el, npath)
        if not naming.is_identifier(name):
            raise SchemaError(npath, f"tool name is not an identifier: {name!r}")
        out.append(ToolRef(name, _leaf(desc_el, dpath)))
    return out


def _global_vars(elem: ET.Element | None, path: str) -> list[GlobalVar]:
    if elem is None:
        return []
    out = []
    for child, vpath in _children(elem, path, "variable"):
        grouped = _walk(child, vpath, ("key", "description", "value"))
        key_el, kpath = _one(grouped, "key", vpath)
        key = _leaf(key_el, kpath)
        if not naming.is_identifier(key):
            raise SchemaError(kpath, f"variable key is not an identifier: {key!r}")
        desc = _opt(grouped, "description")
        value = _opt(grouped, "value")
        out.append(GlobalVar(
            key,
            _leaf(*desc) if desc else "",
            _leaf(*value) if value else "",
        ))
    return out


# ---------------------------------------------------------------------------
# agent form
# ---------------------------------------------------------------------------

def parse_agent_form(text: str) -> AgentForm:
    root = _load_root(text, "agents")
    path = "/agents"
    grouped = _walk(root, path, ("system_input", "system_output",
                                 "global_variables", "agent"))
    sys_in_el, sys_in_path = _one(grouped, "system_input", path)
    sys_out_el, sys_out_path = _one(grouped, "system_output", path)
    gv = _opt(grouped, "global_variables")
    if not grouped["agent"]:
        raise SchemaError(path, "missing <agent>")

    agents = []
    for agent_el, apath in grouped["agent"]:
        agents.append(_parse_agent_spec(agent_el, apath))
    return AgentForm(
        system_input=_leaf(sys_in_el, sys_in_path),
        system_output=_io_slot(sys_out_el, sys_out_path),
        global_variables=_global_vars(*(gv if gv else (None, ""))),
        agents=agents,
    )


def _parse_agent_spec(elem: ET.Element, path: str) -> AgentSpec:
    grouped = _walk(elem, path, ("name", "description", "instructions",
                                 "tools", "agent_input", "agent_output"))
    name_el, npath = _one(grouped, "name", path)
    desc_el, dpath = _one(grouped, "description", path)
    instr_el, ipath = _one(grouped, "instructions", path)
    in_el, in_path = _one(grouped, "agent_input", path)
    out_el, out_path = _one(grouped, "agent_output", path)

    existing: list[ToolRef] = []
    new: list[ToolRef] = []
    for tools_el, tpath in grouped["tools"]:
        tools = _tool_list(tools_el, tpath)
        category = tools_el.attrib.get("category")
        if category == "existing":
            existing.extend(tools)
        elif category == "new":
            new.extend(tools)
        else:
            raise SchemaError(tpath, f"tools category must be existing|new, got {category!r}")

    name = _leaf(name_el, npath)
    if not name:
        raise SchemaError(npath, "agent name must be nonempty")
    return AgentSpec(
        name=name,
        description=_leaf(desc_el, dpath),
        instructions=_leaf(instr_el, ipath),
        tools_existing=existing,
        tools_new=new,
        agent_input=_io_slot(in_el, in_path),
        agent_output=_io_slot(out_el, out_path),
        path=path,
    )


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


# ---------------------------------------------------------------------------
# workflow form
# ---------------------------------------------------------------------------

def parse_workflow_form(text: str) -> WorkflowForm:
    root = _load_root(text, "workflow")
    path = "/workflow"
    grouped = _walk(root, path, ("name", "system_input", "system_output",
                                 "agents", "global_variables", "events"))
    name_el, npath = _one(grouped, "name", path)
    sys_in_el, sys_in_path = _one(grouped, "system_input", path)
    sys_out_el, sys_out_path = _one(grouped, "system_output", path)
    agents_el, agents_path = _one(grouped, "agents", path)
    events_el, events_path = _one(grouped, "events", path)
    gv = _opt(grouped, "global_variables")

    agents = [_parse_workflow_agent(*item)
              for item in _children(agents_el, agents_path, "agent")]

    events = []
    names_seen: set[str] = set()
    for child, cpath in _children(events_el, events_path, "event"):
        event = _parse_event(child, cpath)
        if event.name in names_seen:
            raise SchemaError(event.path, f"duplicate event name: {event.name}")
        names_seen.add(event.name)
        events.append(event)

    return WorkflowForm(
        name=_leaf(name_el, npath),
        system_input=_io_slot(sys_in_el, sys_in_path),
        system_output=_io_slot(sys_out_el, sys_out_path),
        agents=agents,
        global_variables=_global_vars(*(gv if gv else (None, ""))),
        events=events,
    )


def _parse_workflow_agent(elem: ET.Element, path: str) -> WorkflowAgentDecl:
    category = elem.attrib.get("category")
    if category not in ("existing", "new"):
        raise SchemaError(path, f"agent category must be existing|new, got {category!r}")
    grouped = _walk(elem, path, ("name", "description", "tools"), allowed_attrs=("category",))
    name_el, npath = _one(grouped, "name", path)
    desc = _opt(grouped, "description")
    tools: list[ToolRef] = []
    for tools_el, tpath in grouped["tools"]:
        tools.extend(_tool_list(tools_el, tpath))
    name = _leaf(name_el, npath)
    if not name:
        raise SchemaError(npath, "agent name must be nonempty")
    return WorkflowAgentDecl(
        name=name,
        category=category,
        description=_leaf(*desc) if desc else "",
        tools=tools,
        path=path,
    )


def _parse_event(elem: ET.Element, path: str) -> EventSpec:
    grouped = _walk(elem, path, ("name", "inputs", "task", "outputs", "listen", "agent"))
    name_el, npath = _one(grouped, "name", path)
    name = _leaf(name_el, npath)
    if not naming.is_identifier(name):
        raise SchemaError(npath, f"event name is not an identifier: {name!r}")

    inputs: list[KeyDesc] = []
    inputs_el = _opt(grouped, "inputs")
    if inputs_el is not None:
        inputs = [_key_desc(*item) for item in _children(*inputs_el, "input")]

    task_el = _opt(grouped, "task")
    task = _leaf(*task_el) if task_el else None

    outputs_el, opath = _one(grouped, "outputs", path)
    outputs = [_parse_output(*item) for item in _children(outputs_el, opath, "output")]
    if not outputs:
        raise SchemaError(opath, "event must declare at least one output")

    listen: list[str] = []
    listen_el = _opt(grouped, "listen")
    if listen_el is not None:
        listen = [_leaf(*item) for item in _children(*listen_el, "event")]

    agent_ref = None
    agent_el = _opt(grouped, "agent")
    if agent_el is not None:
        el, apath = agent_el
        agrouped = _walk(el, apath, ("name", "model"))
        aname_el, anpath = _one(agrouped, "name", apath)
        amodel_el, ampath = _one(agrouped, "model", apath)
        agent_ref = EventAgentRef(_leaf(aname_el, anpath), _leaf(amodel_el, ampath))

    return EventSpec(name=name, inputs=inputs, task=task, outputs=outputs,
                     listen=listen, agent=agent_ref, path=path)


def _parse_output(elem: ET.Element, path: str) -> OutputSpec:
    grouped = _walk(elem, path, ("key", "description", "condition", "action"))
    key_el, kpath = _one(grouped, "key", path)
    key = _leaf(key_el, kpath)
    if not naming.is_identifier(key):
        raise SchemaError(kpath, f"output key is not an identifier: {key!r}")
    desc = _opt(grouped, "description")
    cond = _opt(grouped, "condition")

    action_el, apath = _one(grouped, "action", path)
    agrouped = _walk(action_el, apath, ("type", "value"))
    type_el, tpath = _one(agrouped, "type", apath)
    action_type = _leaf(type_el, tpath)
    if action_type not in ACTION_TYPES:
        raise ActionTypeError(tpath, f"unknown action type: {action_type!r}")
    value = None
    value_el = _opt(agrouped, "value")
    if action_type == "GOTO":
        if value_el is None:
            raise SchemaError(apath, "GOTO action requires a <value>")
        value = _leaf(*value_el)
    # RESULT/ABORT: a value element is tolerated but carries no meaning

    return OutputSpec(
        key=key,
        description=_leaf(*desc) if desc else "",
        condition=(_leaf(*cond) or None) if cond else None,
        action=ActionSpec(action_type, value),
        path=path,
    )


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

    # V8: agent references and task placeholders resolve
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
    for event in events:
        if not event.task:
            continue
        for key in dict.fromkeys(naming.placeholders(event.task)):
            if key not in gkeys:
                out.append(Diagnostic(
                    "V8", f"task references undefined global {{{key}}}",
                    f"{event.path}/task"))

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
# serialization (canonical element order, 4-space indent)
# ---------------------------------------------------------------------------

def _emit_slot(parent: ET.Element, tag: str, slot: IOSlot) -> None:
    holder = ET.SubElement(parent, tag)
    for pair in slot.pairs:
        ET.SubElement(holder, "key").text = pair.key
        ET.SubElement(holder, "description").text = pair.description


def _emit_globals(parent: ET.Element, variables: list[GlobalVar]) -> None:
    if not variables:
        return
    holder = ET.SubElement(parent, "global_variables")
    for var in variables:
        v = ET.SubElement(holder, "variable")
        ET.SubElement(v, "key").text = var.key
        ET.SubElement(v, "description").text = var.description
        ET.SubElement(v, "value").text = var.value


def _emit_tools(parent: ET.Element, category: str, tools: list[ToolRef]) -> None:
    if not tools:
        return
    holder = ET.SubElement(parent, "tools", {"category": category})
    for tool in tools:
        t = ET.SubElement(holder, "tool")
        ET.SubElement(t, "name").text = tool.name
        ET.SubElement(t, "description").text = tool.description


def agent_form_to_xml(form: AgentForm) -> str:
    root = ET.Element("agents")
    ET.SubElement(root, "system_input").text = form.system_input
    _emit_slot(root, "system_output", form.system_output)
    _emit_globals(root, form.global_variables)
    for agent in form.agents:
        a = ET.SubElement(root, "agent")
        ET.SubElement(a, "name").text = agent.name
        ET.SubElement(a, "description").text = agent.description
        ET.SubElement(a, "instructions").text = agent.instructions
        _emit_tools(a, "existing", agent.tools_existing)
        _emit_tools(a, "new", agent.tools_new)
        _emit_slot(a, "agent_input", agent.agent_input)
        _emit_slot(a, "agent_output", agent.agent_output)
    ET.indent(root, space="    ")
    return ET.tostring(root, encoding="unicode") + "\n"


def workflow_form_to_xml(form: WorkflowForm) -> str:
    root = ET.Element("workflow")
    ET.SubElement(root, "name").text = form.name
    _emit_slot(root, "system_input", form.system_input)
    _emit_slot(root, "system_output", form.system_output)
    agents = ET.SubElement(root, "agents")
    for decl in form.agents:
        a = ET.SubElement(agents, "agent", {"category": decl.category})
        ET.SubElement(a, "name").text = decl.name
        ET.SubElement(a, "description").text = decl.description
        _emit_tools(a, "new", decl.tools)
    _emit_globals(root, form.global_variables)
    events = ET.SubElement(root, "events")
    for event in form.events:
        e = ET.SubElement(events, "event")
        ET.SubElement(e, "name").text = event.name
        if event.inputs:
            inputs = ET.SubElement(e, "inputs")
            for pair in event.inputs:
                i = ET.SubElement(inputs, "input")
                ET.SubElement(i, "key").text = pair.key
                ET.SubElement(i, "description").text = pair.description
        if event.task is not None:
            ET.SubElement(e, "task").text = event.task
        outputs = ET.SubElement(e, "outputs")
        for output in event.outputs:
            o = ET.SubElement(outputs, "output")
            ET.SubElement(o, "key").text = output.key
            ET.SubElement(o, "description").text = output.description
            if output.condition is not None:
                ET.SubElement(o, "condition").text = output.condition
            action = ET.SubElement(o, "action")
            ET.SubElement(action, "type").text = output.action.type
            if output.action.value is not None:
                ET.SubElement(action, "value").text = output.action.value
        if event.listen:
            listen = ET.SubElement(e, "listen")
            for source in event.listen:
                ET.SubElement(listen, "event").text = source
        if event.agent is not None:
            agent = ET.SubElement(e, "agent")
            ET.SubElement(agent, "name").text = event.agent.name
            ET.SubElement(agent, "model").text = event.agent.model
    ET.indent(root, space="    ")
    return ET.tostring(root, encoding="unicode") + "\n"


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def substitute_globals(text: str, variables: Mapping[str, str]) -> str:
    """Replace {key} placeholders; ``{{``/``}}`` escape literal braces.

    Raises UnboundVariableError for a placeholder with no binding. Brace
    sequences that do not form a placeholder pass through untouched.
    """
    out: list[str] = []
    i = 0
    while i < len(text):
        if text.startswith("{{", i):
            out.append("{")
            i += 2
            continue
        if text.startswith("}}", i):
            out.append("}")
            i += 2
            continue
        if text[i] == "{":
            match = naming.PLACEHOLDER_RE.match(text, i)
            if match:
                key = match.group(1)
                if key not in variables:
                    raise UnboundVariableError(f"unbound variable: {{{key}}}")
                out.append(str(variables[key]))
                i = match.end()
                continue
        out.append(text[i])
        i += 1
    return "".join(out)


def globals_map(variables: Iterable[GlobalVar]) -> dict[str, str]:
    return {v.key: v.value for v in variables}
