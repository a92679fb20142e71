"""The listen-graph pass against brute-force oracles.

``forms.listen_graph`` is one Kahn pass that serves V3, V10, the ranks, the
GOTO closure and the commit order. The oracles below are the per-event
walks it replaced: a DFS per event for V3's ancestors, a Kahn loop that
rescans every event per pop for V10's cycle, and a recursive rank.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from agentos.forms import (
    ON_START,
    Diagnostic,
    EventAgentRef,
    EventSpec,
    IOSlot,
    KeyDesc,
    OutputSpec,
    WorkflowAgentDecl,
    WorkflowForm,
    listen_graph,
    validate_workflow_form,
)
from agentos.workflow import compile_graph, forward_closure

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_ancestors(name, by_name):
    """Transitive listen sources of ``name`` (cycle-safe)."""
    seen = set()
    stack = list(by_name[name].listen) if name in by_name else []
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        spec = by_name.get(current)
        if spec is not None:
            stack.extend(spec.listen)
    return seen


def oracle_cycle_members(events):
    """Kahn's algorithm; returns the names left on a cycle (empty if none)."""
    names = {e.name for e in events}
    incoming = {e.name: {s for s in e.listen if s in names} for e in events}
    ready = [name for name, deps in incoming.items() if not deps]
    done = set()
    while ready:
        current = ready.pop()
        done.add(current)
        for name, deps in incoming.items():
            if current in deps:
                deps.discard(current)
                if not deps and name not in done:
                    ready.append(name)
    return names - done


def oracle_v3_v10(form):
    out = []
    events = form.events
    by_name = {e.name: e for e in events}
    available_base = {form.system_input.key} if form.system_input.pairs else set()
    for event in events:
        if event.name == ON_START:
            continue
        available = set(available_base)
        for name in oracle_ancestors(event.name, by_name):
            anc = by_name.get(name)
            if anc is not None:
                available.update(o.key for o in anc.outputs)
        for pair in event.inputs:
            if pair.key not in available:
                out.append(Diagnostic(
                    "V3", f"input key {pair.key!r} is not produced by any listened event",
                    event.path))
    for event in events:
        for source in event.listen:
            if source not in by_name:
                out.append(Diagnostic(
                    "V10", f"listen references unknown event: {source}", event.path))
    cyclic = oracle_cycle_members(events)
    if cyclic:
        out.append(Diagnostic(
            "V10", "listen graph contains a cycle through: " + ", ".join(sorted(cyclic)),
            "/workflow/events"))
    return out


def oracle_ranks(events):
    ranks = {}
    specs = {e.name: e for e in events}

    def rank_of(name):
        if name in ranks:
            return ranks[name]
        spec = specs[name]
        value = 0 if not spec.listen else 1 + max(rank_of(s) for s in spec.listen)
        ranks[name] = value
        return value

    return {e.name: rank_of(e.name) for e in events}


def oracle_closure(events, target):
    closure = {target}
    grew = True
    while grew:
        grew = False
        for event in events:
            if event.name not in closure and closure.intersection(event.listen):
                closure.add(event.name)
                grew = True
    return closure


# ---------------------------------------------------------------------------
# random listen graphs
# ---------------------------------------------------------------------------

NAMES = [ON_START, "a", "b", "c", "d", "e", "f"]
KEYS = ["topic", "k1", "k2", "k3", "k4"]


@st.composite
def listen_forms(draw):
    """Mostly invalid forms: cycles, self-loops, unknown and repeated sources,
    repeated event names, and a system input that may be missing."""
    names = draw(st.lists(st.sampled_from(NAMES), max_size=8, unique=draw(st.booleans())))
    keys = st.lists(st.sampled_from(KEYS), max_size=3)
    events = []
    for i, name in enumerate(names, 1):
        events.append(EventSpec(
            name=name,
            inputs=[KeyDesc(k) for k in draw(keys)],
            outputs=[OutputSpec(k) for k in draw(keys)],
            listen=draw(st.lists(st.sampled_from(NAMES + ["ghost"]), max_size=4)),
            path=f"/workflow/events[1]/event[{i}]"))
    system_input = IOSlot([KeyDesc("topic")] if draw(st.booleans()) else [])
    return WorkflowForm(name="random", system_input=system_input,
                        system_output=IOSlot([KeyDesc("k1")]), events=events)


@st.composite
def valid_dags(draw):
    """Valid forms over a random DAG, listed in a random document order
    after on_start; event ``e{t}`` listens only to events below ``t``."""
    size = draw(st.integers(1, 30))
    events = [EventSpec(ON_START, inputs=[KeyDesc("topic")],
                        outputs=[OutputSpec("topic")])]
    for t in range(1, size):
        sources = draw(st.lists(st.integers(0, t - 1), min_size=1, max_size=4))
        events.append(EventSpec(
            f"e{t}", outputs=[OutputSpec(f"k{t}")],
            listen=[f"e{s}" if s else ON_START for s in sources],
            agent=EventAgentRef("Worker", "m")))
    events[1:] = draw(st.permutations(events[1:]))
    return WorkflowForm(
        name="dag", system_input=IOSlot([KeyDesc("topic")]),
        system_output=IOSlot([KeyDesc(events[-1].outputs[0].key)]),
        agents=[WorkflowAgentDecl("Worker", "new")], events=events)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=max(400, settings.default.max_examples), deadline=None)
@given(listen_forms())
def test_v3_v10_match_oracle(form):
    got = [d for d in validate_workflow_form(form) if d.code in ("V3", "V10")]
    assert got == oracle_v3_v10(form)


@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(valid_dags())
def test_ranks_order_and_closure_match_oracle(form):
    graph = compile_graph(form)
    ranks = oracle_ranks(form.events)
    assert {ce.spec.name: ce.rank for ce in graph.events} == ranks
    assert [ce.spec.name for ce in graph.events] == sorted(
        ranks, key=lambda name: (ranks[name], [e.name for e in form.events].index(name)))
    for event in form.events:
        assert forward_closure(graph, event.name) == oracle_closure(form.events, event.name)


def test_cycle_behind_a_long_chain():
    # a two-event cycle feeding a chain listed in reverse order: V3 must still
    # see the cycle's keys at the far end of the chain
    events = [EventSpec(ON_START, outputs=[OutputSpec("topic")]),
              EventSpec("x", outputs=[OutputSpec("kx")], listen=["y"]),
              EventSpec("y", outputs=[OutputSpec("ky")], listen=["x", ON_START])]
    depth = 50
    events += [EventSpec(f"c{i}", inputs=[KeyDesc("kx"), KeyDesc("missing")],
                         outputs=[OutputSpec(f"k{i}")],
                         listen=[f"c{i - 1}" if i > 1 else "y"])
               for i in range(depth, 0, -1)]
    form = WorkflowForm(name="cyclic", system_input=IOSlot([KeyDesc("topic")]),
                        system_output=IOSlot([KeyDesc("k1")]), events=events)
    got = [d for d in validate_workflow_form(form) if d.code in ("V3", "V10")]
    assert got == oracle_v3_v10(form)
    assert sum(d.code == "V3" for d in got) == depth
    assert got[-1].message.startswith("listen graph contains a cycle through: c1, c10,")


def test_listen_graph_parts():
    events = [EventSpec(ON_START),
              EventSpec("b", listen=["a", "a", "ghost"]),
              EventSpec("a", listen=[ON_START]),
              EventSpec("loop", listen=["loop", "b"]),
              EventSpec("after", listen=["loop"])]
    graph = listen_graph(events)
    assert graph.order == [ON_START, "a", "b"]
    assert graph.sources == {ON_START: [], "b": ["a"], "a": [ON_START],
                             "loop": ["loop", "b"], "after": ["loop"]}
    assert graph.listeners == {ON_START: ["a"], "b": ["loop"], "a": ["b"],
                               "loop": ["loop", "after"], "after": []}
    assert graph.cyclic == {"loop", "after"}
