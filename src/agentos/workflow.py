"""Event-driven workflow execution.

A validated workflow form compiles to a DAG of events. Execution proceeds
in rounds: every round dispatches the full ready set (events whose listen
sources have all completed, kept by counting each event's uncompleted
sources), then commits outcomes in a fixed (rank, document order) sequence.
Serial and parallel modes share that commit order, so the final blackboard
and the trace are identical byte for byte. In parallel mode the calling
thread still runs a round's events, and helper threads take some only while
it is blocked, as on a backend's HTTP call: only the agent calls overlap.

Trace lines never carry timestamps. Every line is derived from committed
state, which is what makes replayed runs comparable.
"""

from __future__ import annotations

import contextlib
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

from . import kernel
from .errors import (
    E_LOOP_LIMIT,
    E_MISSING_OUTPUT,
    E_NO_OUTPUT,
    E_OUTPUT_UNDECLARED,
    InvalidFormError,
    NotFoundError,
)
from .forms import (
    ActionSpec,
    EventAgentRef,
    EventSpec,
    RegistryView,
    WorkflowAgentDecl,
    WorkflowForm,
    globals_map,
    listen_graph,
    substitute_globals,
    validate_workflow_form,
)

PENDING = "pending"
COMPLETED = "completed"

DEFAULT_GOTO_LIMIT = 3
PARALLEL_WORKERS = 32  # threads of one parallel run, its caller included
GOTO_LIMIT_VARIABLE = "max_iterations"

SELECT_MARKER = "SELECTED_OUTPUT:"
_SELECT_INSTRUCTION = (
    'End your reply with a line "SELECTED_OUTPUT: <key>" naming one declared output key.'
)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

@dataclass
class CompiledEvent:
    spec: EventSpec
    rank: int  # longest listen-path depth; 0 for events with no sources


@dataclass
class WorkflowGraph:
    form: WorkflowForm
    events: list[CompiledEvent]  # commit order: by rank, then document order
    listeners: dict[str, list[str]]  # events listening to each event


def compile_graph(form: WorkflowForm, registry: RegistryView | None = None) -> WorkflowGraph:
    """Validate and rank the event graph; raises InvalidFormError on any diagnostic.

    A run registers nothing, so a registered workflow of the same name is no
    collision here: V1 checks the name against no workflow names.
    """
    if registry is not None:
        registry = replace(registry, workflow_names=frozenset())
    diagnostics = validate_workflow_form(form, registry)
    if diagnostics:
        raise InvalidFormError(diagnostics)

    graph = listen_graph(form.events)
    ranks: dict[str, int] = {}
    for name in graph.order:
        ranks[name] = 1 + max((ranks[s] for s in graph.sources[name]), default=-1)
    events = sorted((CompiledEvent(spec, ranks[spec.name]) for spec in form.events),
                    key=lambda ce: ce.rank)  # stable: document order within a rank
    return WorkflowGraph(form=form, events=events, listeners=graph.listeners)


def forward_closure(graph: WorkflowGraph, target: str) -> set[str]:
    """``target`` plus every event that transitively listens to it."""
    closure = {target}
    stack = [target]
    while stack:
        for follower in graph.listeners.get(stack.pop(), ()):
            if follower not in closure:
                closure.add(follower)
                stack.append(follower)
    return closure


# ---------------------------------------------------------------------------
# run state
# ---------------------------------------------------------------------------

@dataclass
class EventOutcome:
    key: str = ""
    value: str = ""
    action: ActionSpec = field(default_factory=lambda: ActionSpec("RESULT"))
    retried: str | None = None  # error code of a first reply that was not usable
    failure: str | None = None  # error code when no usable output was produced
    failure_detail: str = ""


@dataclass
class WorkflowResult:
    status: str  # "completed" | "aborted" | "error"
    output: str | None = None
    output_key: str | None = None
    blackboard: dict[str, str] = field(default_factory=dict)
    trace: list[str] = field(default_factory=list)
    error: str | None = None
    reason: str = ""


class WorkflowRun:
    """Mutable state of one execution."""

    def __init__(self, graph: WorkflowGraph, system_value: str):
        self.graph = graph
        self.system_value = system_value
        self.blackboard: dict[str, str] = {}
        self.state: dict[str, str] = {ce.spec.name: PENDING for ce in graph.events}
        # Kahn-style in-degree counting: per event, how many of its sources
        # are not completed; ``ready`` holds the graph.events index of every
        # pending event whose count is zero
        self.position = {ce.spec.name: i for i, ce in enumerate(graph.events)}
        self.waiting = dict.fromkeys(self.state, 0)
        for followers in graph.listeners.values():
            for follower in followers:
                self.waiting[follower] += 1
        self.ready = {self.position[name] for name, count in self.waiting.items() if not count}
        self.published: dict[str, set[str]] = {ce.spec.name: set() for ce in graph.events}
        self.goto_counts: dict[tuple[str, str], int] = {}
        self.trace: list[str] = []
        self.globals = globals_map(graph.form.global_variables)
        self.goto_limit = _goto_limit(self.globals)
        key = graph.form.system_input.key
        if key:
            self.blackboard[key] = system_value

    def complete(self, name: str) -> None:
        """Commit ``name``: it leaves the ready set and its listeners wait on one fewer source."""
        self.state[name] = COMPLETED
        self.ready.discard(self.position[name])
        for follower in self.graph.listeners[name]:
            self.waiting[follower] -= 1
            if not self.waiting[follower]:
                self.ready.add(self.position[follower])

    def reopen(self, members: list[str]) -> None:
        """Make ``members`` pending again; ``members`` holds every listener of each."""
        for member in members:
            if self.state[member] == COMPLETED:
                self.state[member] = PENDING
                for follower in self.graph.listeners[member]:
                    self.waiting[follower] += 1
        for member in members:
            if self.waiting[member]:
                self.ready.discard(self.position[member])
            else:
                self.ready.add(self.position[member])

    def finish(self, status: str, error: str | None = None, reason: str = "",
               subject: str = "workflow") -> WorkflowResult:
        """End the run: write its last trace line and build its result. Every
        WorkflowResult is made here; ``subject`` names what failed."""
        key = self.graph.form.system_output.key
        completed = status == "completed"
        if completed:
            self.trace.append(f"complete output={key}")
        elif status == "aborted":
            self.trace.append("abort workflow" + (f" code={error}" if error else ""))
        else:
            self.trace.append(f"fail {subject} code={error}")
        return WorkflowResult(status=status, output=self.blackboard[key] if completed else None,
                              output_key=key if completed else None,
                              blackboard=dict(self.blackboard), trace=self.trace,
                              error=error, reason=reason)


def _goto_limit(variables: dict[str, str]) -> int:
    raw = variables.get(GOTO_LIMIT_VARIABLE, "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_GOTO_LIMIT
    return value if value > 0 else DEFAULT_GOTO_LIMIT


def ready_set(run: WorkflowRun) -> list[CompiledEvent]:
    """Pending events whose listen sources have all completed, in commit order."""
    return [run.graph.events[i] for i in sorted(run.ready)]


# ---------------------------------------------------------------------------
# event execution
# ---------------------------------------------------------------------------

def render_event_prompt(spec: EventSpec, inputs: list[tuple[str, str]],
                        variables: dict[str, str]) -> str:
    task = spec.task if spec.task else "Complete this step and produce one declared output."
    task = substitute_globals(task, variables)
    lines = [f"Task: {task}", "", "Inputs:"]
    for key, value in inputs:
        lines.append(f"- {key}: {value}")
    lines.extend(["", "Declared outputs:"])
    for output in spec.outputs:
        line = f"- {output.key}: {output.description}"
        if output.condition:
            line += f" (condition: {output.condition})"
        lines.append(line)
    lines.extend(["", _SELECT_INSTRUCTION])
    return "\n".join(lines)


def select_output(text: str, spec: EventSpec) -> tuple[str, str] | str:
    """Map final agent text to (key, value), or an error code string.

    The marker line is consumed; the rest of the text is the value. With a
    single declared output the marker is optional.
    """
    marker: str | None = None
    kept: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(SELECT_MARKER):
            marker = stripped[len(SELECT_MARKER):].strip()
        else:
            kept.append(line)
    declared = [o.key for o in spec.outputs]
    if marker is not None:
        if marker not in declared:
            return E_OUTPUT_UNDECLARED
        return marker, "\n".join(kept).strip()
    if len(declared) == 1:
        return declared[0], text.strip()
    return E_NO_OUTPUT


AgentResolver = Callable[[EventAgentRef], kernel.AgentDefinition]


def declared_agent(form: WorkflowForm, decl: WorkflowAgentDecl) -> kernel.AgentDefinition:
    """The agent that ``decl``, one of ``form``'s ``<agents>`` declarations,
    describes; runs and the workflow pipeline both build it here."""
    instructions = (substitute_globals(decl.description, globals_map(form.global_variables))
                    if decl.description else f"You are {decl.name}. Follow the task exactly.")
    return kernel.AgentDefinition(name=decl.name, description=decl.description,
                                  instructions=instructions,
                                  tool_names=list(dict.fromkeys(t.name for t in decl.tools)))


def make_agent_resolver(form: WorkflowForm, tools=None, store=None) -> AgentResolver:
    """Resolve event agents from ``store``'s agents when given one, otherwise
    (or for a name it lacks) from the form's declarations, once per name.

    An agent keeps only the tools ``tools`` can describe (none without a
    suite), so a form whose new tools were never built still executes. Events
    share the resolved agent; one with a ``<model>`` gets a copy with that model."""
    decls = {d.name: d for d in form.agents}
    agents: dict[str, kernel.AgentDefinition] = {}

    def describable(name: str) -> bool:
        with contextlib.suppress(NotFoundError):
            return tools.schema(name) is not None
        return False

    def lookup(name: str) -> kernel.AgentDefinition:
        with contextlib.suppress(NotFoundError):
            if store is not None:
                return store.get_agent(name)
        return declared_agent(form, decls.get(name, WorkflowAgentDecl(name, "new")))

    def resolve(ref: EventAgentRef) -> kernel.AgentDefinition:
        if ref.name not in agents:
            agent = lookup(ref.name)
            kept = [n for n in agent.tool_names if describable(n)] if tools is not None else []
            agents[ref.name] = replace(agent, tool_names=kept)
        return replace(agents[ref.name], model=ref.model) if ref.model else agents[ref.name]

    return resolve


def execute_event(run: WorkflowRun, compiled: CompiledEvent, engine, tools,
                  agent: kernel.AgentDefinition | None,
                  limits: kernel.LoopLimits | None = None) -> EventOutcome:
    """Run one event to an outcome: mechanical for on_start (``agent`` None),
    agentic otherwise. It reads committed run state and changes none.

    A reply that names no usable output is retried once with a corrective
    user turn; a second failure surfaces as outcome.failure.
    """
    spec = compiled.spec
    if agent is None:
        return EventOutcome(key=spec.outputs[0].key,
                            value=run.system_value, action=ActionSpec("RESULT"))

    inputs = [(p.key, run.blackboard.get(p.key, "")) for p in spec.inputs]
    prompt = render_event_prompt(spec, inputs, run.globals)
    retried: str | None = None
    context = kernel.Context()
    task = prompt
    last_code = E_NO_OUTPUT
    last_detail = ""

    for attempt in range(2):
        outcome = kernel.run_agent_loop(agent, task, context, engine, tools, limits)
        if outcome.kind != "completed":
            last_code = E_NO_OUTPUT
            last_detail = f"agent run ended with {outcome.kind}: {outcome.reason}"
        else:
            selected = select_output(outcome.text, spec)
            if isinstance(selected, tuple):
                key, value = selected  # select_output returns declared keys only
                action = next(o.action for o in spec.outputs if o.key == key)
                return EventOutcome(key=key, value=value, action=action, retried=retried)
            last_code = selected
            last_detail = "reply did not select a declared output"
        if attempt == 0:
            retried = last_code
            declared = ", ".join(o.key for o in spec.outputs)
            task = (f"Your previous reply was not usable ({last_code}). "
                    f"Declared output keys: {declared}. "
                    f"Reply again and end with a line 'SELECTED_OUTPUT: <key>'.")
    return EventOutcome(retried=retried, failure=last_code, failure_detail=last_detail)


# ---------------------------------------------------------------------------
# commit
# ---------------------------------------------------------------------------

def apply_outcome(run: WorkflowRun, compiled: CompiledEvent,
                  outcome: EventOutcome) -> list[str] | WorkflowResult:
    """Commit one outcome. Returns the events a GOTO rewound (none for any
    other commit), or the run's result when the outcome ends the run."""
    name = compiled.spec.name
    if outcome.retried:
        run.trace.append(f"retry {name} code={outcome.retried}")
    if outcome.failure:
        return run.finish("error", outcome.failure, f"{name}: {outcome.failure_detail}", name)

    action = outcome.action
    run.trace.append(f"commit {name} action={action.type} key={outcome.key}")
    if action.type == "ABORT":
        run.complete(name)
        return run.finish("aborted", reason=outcome.value or f"{name} requested abort")

    run.blackboard[outcome.key] = outcome.value
    run.published[name].add(outcome.key)
    run.complete(name)
    if action.type != "GOTO":
        return []

    target = action.value or ""
    count = run.goto_counts.get((name, target), 0) + 1
    run.goto_counts[(name, target)] = count
    run.trace.append(f"goto {name} -> {target} count={count} limit={run.goto_limit}")
    if count > run.goto_limit:
        return run.finish("aborted", E_LOOP_LIMIT,
                          f"goto {name} -> {target} exceeded limit {run.goto_limit}")
    members = sorted(forward_closure(run.graph, target), key=run.position.__getitem__)
    for member in members:
        for key in run.published[member]:
            run.blackboard.pop(key, None)
        run.published[member].clear()
        run.trace.append(f"reset {member}")
    run.reopen(members)
    return members


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

class _Crew:
    """The helper threads of one parallel run, joined by `close`.

    The caller runs each round's events itself, batch[0] first. A helper
    needs the interpreter lock to take one, so it takes events only while the
    caller is blocked; it starts one more if events are still queued and no
    helper is idle. At most PARALLEL_WORKERS threads run, the caller included.
    """

    def __init__(self):
        self.cond = threading.Condition(threading.Lock())
        self.queue, self.threads, self.idle, self.closed = deque(), [], 0, False

    def map(self, fn, batch):
        if not self.threads:
            self._start()  # before the round is queued, so it waits for it
        self.fn, self.results = fn, [None] * len(batch)
        with self.cond:
            self.queue.extend(enumerate(batch[1:], 1))
            self.cond.notify_all()
        self._run(0, batch[0])
        self._drain()
        with self.cond:
            self.cond.wait_for(lambda: None not in self.results)
        for outcome in self.results:
            if isinstance(outcome, BaseException):
                raise outcome  # the first in batch order, as a serial round raises
        return self.results

    def close(self) -> None:
        with self.cond:
            self.closed = True
            self.cond.notify_all()
        for thread in self.threads:
            thread.join()

    def _start(self) -> None:
        thread = threading.Thread(target=self._help)
        thread.start()
        self.threads.append(thread)  # only once started, so close can join it

    def _run(self, index: int, ce: CompiledEvent) -> None:
        try:
            self.results[index] = self.fn(ce)
        except BaseException as exc:  # map raises it on the calling thread
            self.results[index] = exc

    def _drain(self) -> None:
        with contextlib.suppress(IndexError):  # popleft is atomic, so no lock is taken
            while True:
                self._run(*self.queue.popleft())

    def _help(self) -> None:
        while True:
            with self.cond:
                self.idle += 1
                self.cond.wait_for(lambda: self.queue or self.closed)
                self.idle -= 1
                if self.closed:
                    return
                if len(self.queue) > 1 and not self.idle and len(self.threads) < PARALLEL_WORKERS - 1:
                    self._start()
            self._drain()
            with self.cond:
                if None not in self.results:  # the round is done: wake the caller
                    self.cond.notify_all()


def run_workflow(form: WorkflowForm, input_value: str, engine, *,
                 registry: RegistryView | None = None,
                 tools=None,
                 resolve_agent: AgentResolver | None = None,
                 parallel: bool = False,
                 limits: kernel.LoopLimits | None = None) -> WorkflowResult:
    """Execute a workflow form end to end.

    Completion requires every event completed and the system output key
    present on the blackboard; a missing key is reported as E_MISSING_OUTPUT
    rather than silently returning partial state.
    """
    graph = compile_graph(form, registry)
    resolver = resolve_agent or make_agent_resolver(form, tools)
    # resolved before round 1 on this thread, so helper threads only run events
    agents = {ce.spec.name: ce.spec.agent and resolver(ce.spec.agent) for ce in graph.events}
    run = WorkflowRun(graph, input_value)

    def execute(ce: CompiledEvent) -> EventOutcome:
        return execute_event(run, ce, engine, tools, agents[ce.spec.name], limits)

    # the crew starts no thread until a parallel round
    with contextlib.closing(_Crew()) as crew:
        round_no = 0
        while True:
            batch = ready_set(run)
            if not batch:
                if any(state != COMPLETED for state in run.state.values()):
                    return run.finish("error", "E_STALLED",
                                      "no event is ready and the workflow is not complete")
                key = graph.form.system_output.key
                if key not in run.blackboard:
                    return run.finish("error", E_MISSING_OUTPUT,
                                      f"system output key {key!r} was never published")
                return run.finish("completed")

            round_no += 1
            run.trace.append(f"round {round_no}")
            for ce in batch:
                ref = ce.spec.agent
                run.trace.append("run {} agent={} model={}".format(
                    ce.spec.name,
                    ref.name if ref else "-",
                    (ref.model if ref and ref.model else "-")))

            outcomes = list((crew.map if parallel and len(batch) > 1 else map)(execute, batch))

            reset_this_round: set[str] = set()
            for ce, outcome in zip(batch, outcomes):
                if ce.spec.name in reset_this_round:
                    # an earlier commit in this round rewound this event; its
                    # result is stale and must not land
                    run.trace.append(f"discard {ce.spec.name}")
                    continue
                committed = apply_outcome(run, ce, outcome)
                if isinstance(committed, WorkflowResult):
                    return committed
                reset_this_round.update(committed)
