"""workflow_graphs: generated workflow XML run serially, in parallel and by the CLI.

Forms and workflow work grows with graph size while each event's context
stays short, so this workload bypasses the kernel, engine and backend costs
that dominate ``handoff_sessions``: an optimisation there should leave these
numbers unchanged. Graphs are layered DAGs at most 8 ready events wide with
about 20 to 1,000 events, conditional outputs (RESULT or ABORT) on every seventh event and GOTO
loops. One graph's loop exhausts its budget and ends with E_LOOP_LIMIT.
Every run parses the XML text again. Replies come from a router backend
keyed by model name (one model per event); the CLI path replays a cassette
recorded in set-up through the same registry resolver the CLI uses.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from agentos import backends, cli, engine as engine_mod, forms, registry, workflow

from .common import CountingSleep, Measurement, RouterBackend, retry_policy, sha

NAME = "workflow_graphs"

POOL = 36  # three runs per graph: enough samples for a p90 in one pass
MIN_EVENTS, MAX_EVENTS = 20, 1000
MAX_WIDTH = 8  # parallel rounds start one OS thread per ready event
EXHAUSTED_RANK = 3  # the size rank of the graph whose loop runs out of budget
INPUT_KEY, OUTPUT_KEY = "request", "final_report"
AGENTS = ("Planner Agent", "Writer Agent", "Checker Agent")

REPORT = [("rate_per_s", "events_per_s", "1/s", "events", None),
          ("p50_ms", "workflow_ms_p50", "ms", "workflow_ms", 50),
          ("tail_ms", "workflow_ms_p90", "ms", "workflow_ms", 90),
          ("aux_p50_ms", "cli_ms_p50", "ms", "cli_ms", 50)]
PREDICTED = ("forms", "workflow")


def pool_sizes() -> list[int]:
    """Event counts of one pass: quantiles of a Pareto(1) tail from 20, capped
    at 1,000, so every seed gets the same long-tailed mix of sizes."""
    return [min(MAX_EVENTS, round(MIN_EVENTS / (1 - (i + 0.5) / POOL))) for i in range(POOL)]


@dataclass
class Graph:
    name: str
    xml: str
    replies: dict[str, tuple]  # model -> _replier arguments
    planned_gotos: int
    planned_aborts: int
    expected_status: str
    expected_output: str | None
    xml_path: Path = None
    cassette: Path = None
    trace_path: Path = None

    def backend(self) -> RouterBackend:
        return RouterBackend({model: _replier(*spec) for model, spec in self.replies.items()})


def _replier(value: str, key: str, marked: bool, goto_key: str, gotos: int):
    """Reply for the n-th call of one event's model: GOTO for the first
    ``gotos`` calls (when the event loops), then its RESULT output. Events
    with several outputs name the one they select."""
    def reply(n: int) -> str:
        if n < gotos:
            return f"{value} needs another pass\nSELECTED_OUTPUT: {goto_key}"
        return f"{value}\nSELECTED_OUTPUT: {key}" if marked else value
    return reply


def _slot(tag: str, key: str, description: str) -> str:
    return f"<{tag}><key>{key}</key><description>{description}</description></{tag}>"


def _output(key: str, description: str, action: str, value: str = "",
            condition: str = "") -> str:
    cond = f"<condition>{condition}</condition>" if condition else ""
    val = f"<value>{value}</value>" if value else ""
    return (f"<output><key>{key}</key><description>{description}</description>{cond}"
            f"<action><type>{action}</type>{val}</action></output>")


def make_graph(rng: random.Random, name: str, events: int, loop_gotos: int,
               exhausted: bool) -> Graph:
    """A layered DAG of ``events`` events; the last one publishes the output.

    With ``loop_gotos`` > 0 one event near the end loops back two layers up
    that many times before it lets its result through; with ``exhausted`` it
    never does, so the run aborts with E_LOOP_LIMIT.
    """
    layers: list[list[str]] = [["on_start"]]
    remaining = events - 2
    widths: list[int] = []
    while remaining > 0:
        if not widths:
            # every run of 8 layers has each width from 1 to 8 once, so the
            # number of rounds is nearly the same for every seed
            widths = rng.sample(range(1, MAX_WIDTH + 1), MAX_WIDTH)
        width = min(widths.pop(), remaining)
        layers.append([f"e{len(layers)}_{j}" for j in range(width)])
        remaining -= width
    layers.append(["sink"])

    key_of = {"on_start": INPUT_KEY}
    listen: dict[str, list[str]] = {}
    # event j of a layer listens to 1 to 3 neighbouring events of the layer
    # before, from j on: not random, so that the cost of a size is steady
    fan_in = itertools.cycle((1, 2, 3))
    for depth in range(1, len(layers)):
        previous = layers[depth - 1]
        for j, event in enumerate(layers[depth]):
            key_of[event] = OUTPUT_KEY if event == "sink" else f"k_{event}"
            count = min(len(previous), next(fan_in))
            listen[event] = previous if event == "sink" else [
                previous[(j + k) % len(previous)] for k in range(count)]
    loop_at = None
    if loop_gotos or exhausted:
        # the looping event sits in the last layer before the sink and must
        # reach its target, two layers up, through the layer between them
        loop_at = len(layers) - 2
        event, middle, target = layers[loop_at][0], layers[loop_at - 1][0], layers[loop_at - 2][0]
        listen[middle] = list(dict.fromkeys(listen[middle] + [target]))
        listen[event] = list(dict.fromkeys(listen[event] + [middle]))

    limit = 2 if exhausted else workflow.DEFAULT_GOTO_LIMIT
    parts = [f"<workflow><name>{name}</name>",
             _slot("system_input", INPUT_KEY, "What the report is about."),
             _slot("system_output", OUTPUT_KEY, "The finished report."), "<agents>"]
    parts += [f'<agent category="new"><name>{a}</name><description>{a} works on '
              f"{{topic}} step by step.</description></agent>" for a in AGENTS]
    parts.append("</agents><global_variables>")
    parts.append("<variable><key>topic</key><description>Subject.</description>"
                 f"<value>topic {rng.randint(0, 999)}</value></variable>")
    parts.append("<variable><key>max_iterations</key><description>GOTO budget."
                 f"</description><value>{limit}</value></variable>")
    parts.append("</global_variables><events>")
    parts.append("<event><name>on_start</name><inputs>"
                 f"{_slot('input', INPUT_KEY, 'The request.')}</inputs><outputs>"
                 f"{_output(INPUT_KEY, 'The request.', 'RESULT')}</outputs></event>")

    replies: dict[str, tuple] = {}
    planned_gotos = 0
    for depth in range(1, len(layers)):
        for event in layers[depth]:
            key = key_of[event]
            outputs = _output(key, f"Result of {event}.", "RESULT")
            goto_key, gotos, marked = "", 0, False
            if depth == loop_at and event == layers[depth][0]:
                goto_key = f"k_{event}_redo"
                gotos = planned_gotos = limit + 1 if exhausted else loop_gotos
                marked = True
                outputs = (_output(key, f"Result of {event}.", "RESULT",
                                   condition="the draft is approved") +
                           _output(goto_key, "Why another pass is needed.", "GOTO",
                                   value=layers[depth - 2][0],
                                   condition="the draft needs work"))
            elif event != "sink" and len(replies) % 7 == 3:
                marked = True  # conditional: RESULT, or ABORT when inputs clash
                outputs = (_output(key, f"Result of {event}.", "RESULT",
                                   condition="the inputs agree") +
                           _output(f"k_{event}_stop", "Why the run stops.", "ABORT",
                                   condition="the inputs contradict each other"))
            inputs = "".join(_slot("input", key_of[s], f"Output of {s}.")
                             for s in listen[event])
            task = (f"Combine the inputs about {{topic}} for {event}."
                    if rng.random() < 0.5 else f"Check the inputs for {event}.")
            model = f"m_{event}"
            replies[model] = (f"{event} result", key, marked, goto_key, gotos)
            agent = rng.choice(AGENTS)
            listens = "".join(f"<event>{s}</event>" for s in listen[event])
            parts.append(f"<event><name>{event}</name><inputs>{inputs}</inputs>"
                         f"<task>{task}</task><outputs>{outputs}</outputs>"
                         f"<listen>{listens}</listen><agent><name>{agent}</name>"
                         f"<model>{model}</model></agent></event>")
    parts.append("</events></workflow>")
    return Graph(name, "\n".join(parts), replies, planned_gotos,
                 1 if exhausted else 0,
                 "aborted" if exhausted else "completed",
                 None if exhausted else "sink result")


@dataclass
class State:
    root: Path
    graphs: list[Graph]
    registry_root: Path
    rag_root: Path
    sleep: CountingSleep = field(default_factory=CountingSleep)


def _record_cli_cassette(graph: Graph, registry_root: Path) -> None:
    """Record what ``agentos run-workflow`` will ask, exactly as the CLI builds it."""
    store = registry.RegistryStore(registry_root)
    recorder = backends.CassetteBackend(graph.cassette, "record", inner=graph.backend())
    engine = engine_mod.Engine(mode=engine_mod.TRANSFORMED, backend=recorder)
    suite = registry.RegistryToolSuite(store, workdir=registry_root / "workspace")
    form = forms.parse_workflow_form(graph.xml)
    workflow.run_workflow(form, "write the report", engine, registry=store.view(),
                          tools=suite,
                          resolve_agent=registry.make_registry_resolver(store, form, suite))


def setup(root: Path, seed: int) -> State:
    rng = random.Random(f"{NAME}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    sizes = pool_sizes()
    order = list(range(POOL))
    rng.shuffle(order)
    graphs = []
    for rank in order:
        exhausted = rank == EXHAUSTED_RANK
        gotos = 0 if exhausted or rank % 2 else 1 + (rank // 2) % 3
        graph = make_graph(rng, f"graph_{rank:02d}", sizes[rank], gotos, exhausted)
        graph.xml_path = root / f"{graph.name}.xml"
        graph.cassette = root / f"{graph.name}.cassette"
        graph.trace_path = root / f"{graph.name}.trace"
        graph.xml_path.write_text(graph.xml, encoding="utf-8")
        graphs.append(graph)
    state = State(root, graphs, root / "registry", root / "ragstore")
    for graph in graphs:
        _record_cli_cassette(graph, state.registry_root)
    return state


def _in_process(state: State, graph: Graph, parallel: bool):
    engine = engine_mod.Engine(mode=engine_mod.TRANSFORMED, backend=graph.backend(),
                               retry=retry_policy(state.sleep))
    form = forms.parse_workflow_form(graph.xml)
    return workflow.run_workflow(form, "write the report", engine, parallel=parallel)


def _via_cli(state: State, graph: Graph) -> tuple[int, dict, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.dispatch_command([
            "run-workflow", str(graph.xml_path), "--input", "write the report",
            "--registry-root", str(state.registry_root), "--rag-root", str(state.rag_root),
            "--mode", engine_mod.TRANSFORMED, "--cassette", str(graph.cassette),
            "--cassette-mode", "replay", "--trace", str(graph.trace_path), "--json"])
    payload = json.loads(out.getvalue().strip().splitlines()[-1])
    trace = graph.trace_path.read_text(encoding="utf-8").splitlines()
    return code, payload, trace


def _widest_round(trace: list[str]) -> int:
    widest = width = 0
    for line in trace:
        if line.startswith("round "):
            width = 0
        elif line.startswith("run "):
            width += 1
            widest = max(widest, width)
    return widest


def check(graph: Graph, serial, parallel, cli_run) -> list[str]:
    """Oracle: three ways agree, and status, output and loop counts are as planned."""
    code, payload, cli_trace = cli_run
    problems = []
    if (serial.status, serial.output) != (graph.expected_status, graph.expected_output):
        problems.append(f"{graph.name}: {serial.status} {serial.output!r}, expected "
                        f"{graph.expected_status} {graph.expected_output!r}")
    if graph.planned_aborts and serial.error != "E_LOOP_LIMIT":
        problems.append(f"{graph.name}: error {serial.error}, expected E_LOOP_LIMIT")
    if (parallel.status, parallel.output, parallel.blackboard, parallel.trace) != \
            (serial.status, serial.output, serial.blackboard, serial.trace):
        problems.append(f"{graph.name}: parallel run differs from the serial run")
    if (payload.get("status"), payload.get("output"), payload.get("error")) != \
            (serial.status, serial.output, serial.error) or cli_trace != serial.trace:
        problems.append(f"{graph.name}: CLI run differs from the serial run")
    if code != (0 if serial.status == "completed" else 1):
        problems.append(f"{graph.name}: CLI exit code {code}")
    gotos = sum(line.startswith("goto ") for line in serial.trace)
    aborts = sum(line.startswith("abort workflow") for line in serial.trace)
    if (gotos, aborts) != (graph.planned_gotos, graph.planned_aborts):
        problems.append(f"{graph.name}: {gotos} gotos and {aborts} aborts, planned "
                        f"{graph.planned_gotos} and {graph.planned_aborts}")
    if _widest_round(serial.trace) > MAX_WIDTH:
        problems.append(f"{graph.name}: a round was wider than {MAX_WIDTH}")
    return problems


def run_pass(state: State, m: Measurement) -> Measurement:
    for graph in state.graphs:
        runs = []
        for way in ("serial", "parallel", "cli"):
            start = m.start()
            runs.append(_via_cli(state, graph) if way == "cli"
                        else _in_process(state, graph, parallel=way == "parallel"))
            elapsed = m.stop(start)
            m.sample("workflow_ms", elapsed * 1000.0)
            if way == "cli":
                m.sample("cli_ms", elapsed * 1000.0)
            executed = sum(line.startswith("run ") for line in runs[0].trace)
            m.add_work("events", executed, elapsed)
        serial, parallel, cli_run = runs
        m.verdict(check(graph, serial, parallel, cli_run),
                  sha(json.dumps([serial.status, serial.output, serial.trace])))
    return m
