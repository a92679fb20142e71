"""The counted ready set against the scan it replaced, and the cost of a round.

``scan_ready_set`` is the ready set as it was computed before in-degree
counting: every event and its sources, every round. It survives only here,
as the oracle the counted set must equal after every commit, reset and
discard of random layered graphs with GOTO loops and aborts.
"""

import statistics
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentos import workflow
from agentos.backends import CompletionResponse, ScriptedBackend
from agentos.engine import Engine
from agentos.errors import E_LOOP_LIMIT, E_MISSING_OUTPUT
from agentos.forms import parse_workflow_form
from agentos.workflow import COMPLETED, PENDING, ready_set, run_workflow


def scan_ready_set(run):
    return [ce for ce in run.graph.events
            if run.state[ce.spec.name] == PENDING
            and all(run.state.get(s) == COMPLETED for s in ce.spec.listen)]


def _names(events):
    return [ce.spec.name for ce in events]


def _output(key, action, target="", condition=""):
    value = f"<value>{target}</value>" if target else ""
    cond = f"<condition>{condition}</condition>" if condition else ""
    return (f"<output><key>{key}</key><description>d</description>{cond}"
            f"<action><type>{action}</type>{value}</action></output>")


def workflow_xml(events, output_key, goto_limit=3):
    """``events``: (name, sources, second output or None); the second output
    is ("GOTO", target) or ("ABORT", "")."""
    parts = []
    for name, sources, extra in events:
        outputs = _output(f"k_{name}", "RESULT")
        if extra:
            outputs = (_output(f"k_{name}", "RESULT", condition="done") +
                       _output(f"k_{name}_{extra[0].lower()}", extra[0], extra[1],
                               condition="not done"))
        listens = "".join(f"<event>{s}</event>" for s in sources)
        parts.append(f"<event><name>{name}</name><outputs>{outputs}</outputs>"
                     f"<listen>{listens}</listen>"
                     f"<agent><name>Worker</name><model>m_{name}</model></agent></event>")
    return f"""<workflow><name>rounds</name>
    <system_input><key>topic</key><description>d</description></system_input>
    <system_output><key>{output_key}</key><description>d</description></system_output>
    <agents><agent category="new"><name>Worker</name><description>w</description></agent></agents>
    <global_variables><variable><key>max_iterations</key><value>{goto_limit}</value></variable>
    </global_variables>
    <events>
        <event><name>on_start</name>
            <inputs><input><key>topic</key><description>d</description></input></inputs>
            <outputs>{_output("topic", "RESULT")}</outputs></event>
        {"".join(parts)}
    </events></workflow>"""


class ChoiceBackend:
    """The n-th call of an event's model selects its n-th planned output
    ("RESULT", "GOTO" or "ABORT"), then RESULT for good."""

    def __init__(self, plans):
        self.plans = plans
        self.calls = {}
        self.lock = threading.Lock()

    def complete(self, request):
        name = request.model[2:]
        with self.lock:
            n = self.calls.get(name, 0)
            self.calls[name] = n + 1
        plan = self.plans.get(name, [])
        choice = plan[n] if n < len(plan) else "RESULT"
        key = f"k_{name}" if choice == "RESULT" else f"k_{name}_{choice.lower()}"
        return CompletionResponse(text=f"{name} call {n}\nSELECTED_OUTPUT: {key}")


@st.composite
def layered_runs(draw):
    """Layered DAG whose events listen to 1-3 events of earlier layers, with
    GOTO and ABORT outputs and the reply plan of every event."""
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    earlier = ["on_start"]
    listen = {}
    for depth, width in enumerate(widths, 1):
        layer = [f"e{depth}_{j}" for j in range(width)]
        for name in layer:
            listen[name] = draw(st.lists(st.sampled_from(earlier), min_size=1,
                                         max_size=3, unique=True))
        earlier += layer
    events, plans = [], {}
    for name, sources in listen.items():
        kind = draw(st.sampled_from(["", "", "GOTO", "GOTO", "ABORT"]))
        extra = None
        if kind == "GOTO":
            # V5: a target may not listen to its source
            extra = ("GOTO", draw(st.sampled_from(
                [t for t in earlier if name not in listen.get(t, ())])))
        elif kind == "ABORT":
            extra = ("ABORT", "")
        events.append((name, sources, extra))
        if extra:
            plans[name] = draw(st.lists(st.sampled_from(["RESULT", extra[0]]), max_size=3))
    last = events[-1][0]
    return events, f"k_{last}", plans, draw(st.integers(1, 3))


# on_start -> T -> B and on_start -> X -> S; S sorts before B in the same
# round and its GOTO rewinds T, which rewinds B before B's result commits
SAME_ROUND_GOTO = ([("T", ["on_start"], None), ("X", ["on_start"], None),
                    ("S", ["X"], ("GOTO", "T")), ("B", ["T"], None)],
                   "k_B", {"S": ["GOTO"]}, 3)


@settings(max_examples=150, deadline=None)
@example(SAME_ROUND_GOTO)
@given(layered_runs())
def test_counted_ready_set_equals_the_scan(spec):
    events, output_key, plans, goto_limit = spec
    form = parse_workflow_form(workflow_xml(events, output_key, goto_limit))
    checks = []

    def check(run):
        checks.append(1)
        assert _names(ready_set(run)) == _names(scan_ready_set(run))

    class CheckedTrace(list):
        def __init__(self, run):
            super().__init__()
            self.run = run

        def append(self, line):
            super().append(line)
            if line.startswith("discard "):
                check(self.run)

    class CheckedRun(workflow.WorkflowRun):
        def __init__(self, graph, system_value):
            super().__init__(graph, system_value)
            self.trace = CheckedTrace(self)

    def checked_apply(run, compiled, outcome):
        verdict = apply_outcome(run, compiled, outcome)
        check(run)  # after the commit and any resets it made
        return verdict

    def checked_ready_set(run):
        batch = ready_set(run)
        assert _names(batch) == _names(scan_ready_set(run))
        return batch

    apply_outcome = workflow.apply_outcome
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workflow, "WorkflowRun", CheckedRun)
        patch.setattr(workflow, "apply_outcome", checked_apply)
        patch.setattr(workflow, "ready_set", checked_ready_set)
        serial, parallel = [run_workflow(form, "topic",
                                         Engine("transformed", ChoiceBackend(plans)),
                                         parallel=parallel)
                            for parallel in (False, True)]
    assert checks
    # a last event that committed its GOTO output never publishes the system output
    assert serial.error in (None, E_LOOP_LIMIT, E_MISSING_OUTPUT)
    assert (parallel.status, parallel.trace, parallel.blackboard) == \
        (serial.status, serial.trace, serial.blackboard)
    if spec is SAME_ROUND_GOTO:
        assert serial.trace.index("reset B") < serial.trace.index("discard B")


def layered_workflow(events, width=4):
    """``events`` events after on_start in layers of ``width``; each listens
    to one or two neighbours of the layer before it."""
    names = [f"e{i}" for i in range(events)]
    layers = [["on_start"]] + [names[i:i + width] for i in range(0, events, width)]
    specs = []
    for depth in range(1, len(layers)):
        previous = layers[depth - 1]
        for j, name in enumerate(layers[depth]):
            sources = dict.fromkeys(previous[(j + k) % len(previous)] for k in range(1 + j % 2))
            specs.append((name, list(sources), None))
    return parse_workflow_form(workflow_xml(specs, f"k_{names[-1]}"))


def test_round_cost_per_event_stays_flat_as_graphs_grow():
    forms = {n: layered_workflow(n) for n in (200, 400, 800)}
    growth = []  # per round, so that each ratio compares neighbouring timings
    for _ in range(7):
        per_event = {}
        for n, form in forms.items():
            engine = Engine("transformed", ScriptedBackend(["done"] * n))
            start = time.process_time()
            result = run_workflow(form, "topic", engine)
            per_event[n] = (time.process_time() - start) / n
            assert result.status == "completed"
        growth.append((per_event[400] / per_event[200], per_event[800] / per_event[400]))
    doubling = [statistics.median(ratios) for ratios in zip(*growth)]
    assert max(doubling) < 1.3, doubling
