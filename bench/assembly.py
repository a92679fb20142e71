"""self_assembly: creation pipelines replayed against a growing registry.

This is the registry's write path, beside the read path that
``handoff_sessions`` covers, and the only workload that measures
``creation``. Set-up fills a registry with 40 tool and 40 agent
definitions, all with builtin bodies, and records one direct-mode cassette
per pipeline. The timed phase replays 40 pipelines in a fixed order,
alternating ``create_agents_pipeline`` and ``create_workflow_pipeline``, so
the registry grows to about 200 definitions as they land. A quarter of the
scripts plan one failed attempt (an invalid profile document, a missing
TEST line, or a register attempt that forgets to register), so rollback
runs beside the phase snapshots. Each pass starts again from a copy of the
set-up registry. Restore rewrites every file and is mostly system time; a
larger starting registry made the figures follow the file system's load
more than the runtime.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from agentos import backends, creation, engine as engine_mod, forms, registry
from agentos.kernel import AgentDefinition, ToolCall

from .common import CountingSleep, Measurement, retry_policy, sha

NAME = "self_assembly"

BASE_TOOLS = 40
BASE_AGENTS = 40
PIPELINES = 40
BUILTINS = {"echo": ("text", "hello"), "arithmetic_eval": ("expression", "(2+3)*4")}

REPORT = [("rate_per_s", "pipelines_per_s", "1/s", "pipelines", None),
          ("p50_ms", "pipeline_ms_p50", "ms", "pipeline_ms", 50),
          ("tail_ms", "pipeline_ms_p90", "ms", "pipeline_ms", 90),
          ("aux_p50_ms", "rollback_pipeline_ms_p50", "ms", "rollback_pipeline_ms", 50)]
PREDICTED = ("registry.snapshot", "registry.restore")


@dataclass
class Plan:
    index: int
    kind: str  # "agents" | "workflow"
    requirement: str
    steps: list
    phases: list[tuple[str, int]]  # planned (phase, attempts)
    names: list[str]  # registry files the pipeline must leave, as kind/name.def
    cassette: Path = None
    digest: str = ""  # registry contents after this pipeline, as recorded


@dataclass
class State:
    root: Path
    base: Path
    work: Path
    plans: list[Plan]
    sleep: CountingSleep = field(default_factory=CountingSleep)


def registry_digest(root: Path) -> str:
    """Hash of every definition file's path and bytes."""
    parts = []
    for path in sorted(root.glob("*/*.def")):
        parts.append(f"{path.parent.name}/{path.name}".encode() + b"\0" + path.read_bytes())
    return sha(b"\0\0".join(parts))


def _agents_plan(rng: random.Random, i: int, base_tools: list[str]) -> Plan:
    # pipelines 0, 8, 16, ... fail once: alternately the profile and the tools phase
    profile_attempts = 2 if i % 16 == 0 else 1
    tools_attempts = 2 if i % 16 == 8 else 1
    count = 2 if tools_attempts == 2 else 1 + (i // 2) % 2
    output_key = f"result_{i}"
    specs, new_tools = [], []
    for j in range(count):
        tool = f"gen_tool_{i}_{j}"
        builtin = rng.choice(sorted(BUILTINS))
        new_tools.append((tool, builtin))
        specs.append((f"Gen Agent {i} {j}", rng.choice(base_tools), tool,
                      output_key if count == 1 else f"out_{i}_{j}"))

    def document(bad_tool: str = "") -> str:
        agents = []
        for name, existing, tool, out_key in specs:
            agents.append(
                f"<agent><name>{name}</name><description>Handles part {name[-1]} of "
                f"request {i}.</description><instructions>Work on request {i} with "
                f"{tool}.</instructions><tools category=\"existing\"><tool><name>"
                f"{bad_tool or existing}</name><description>Shared tool.</description>"
                f"</tool></tools><tools category=\"new\"><tool><name>{tool}</name>"
                f"<description>Built for request {i}.</description></tool></tools>"
                f"<agent_input><key>in_{i}</key><description>The request.</description>"
                f"</agent_input><agent_output><key>{out_key}</key><description>The "
                f"answer.</description></agent_output></agent>")
        return (f"<agents><system_input>Request {i}.</system_input><system_output><key>"
                f"{output_key}</key><description>The answer.</description></system_output>"
                + "".join(agents) + "</agents>")

    steps: list = []
    if profile_attempts == 2:
        steps.append("Team:\n" + document(bad_tool=f"missing_tool_{i}"))  # fails A3
    steps.append("Team:\n" + document())
    for attempt in range(tools_attempts):
        for tool, builtin in new_tools:
            param = BUILTINS[builtin][0]
            steps.append(ToolCall("create_tool", {
                "name": tool, "description": f"Built for request {i}.",
                "builtin": builtin, "parameters": f'["{param}"]'}))
        demos = [f"TEST: <function={tool}><parameter={BUILTINS[b][0]}>{BUILTINS[b][1]}"
                 f"</parameter></function>" for tool, b in new_tools]
        if attempt + 1 < tools_attempts:
            demos = demos[:-1]  # the planned failure: one tool is not demonstrated
        steps.append("created\n" + "\n".join(demos))
    for name, existing, tool, _ in specs:
        steps.append(ToolCall("create_agent", {
            "name": name, "description": f"Handles part {name[-1]} of request {i}.",
            "instructions": f"Work on request {i} with {tool}.",
            "tools": f"{existing}, {tool}"}))
    steps.append("registered the agents")
    names = [f"tools/{tool}.def" for tool, _ in new_tools] + \
        [f"agents/{name}.def" for name, *_ in specs]
    return Plan(i, "agents", f"build a team for request {i}", steps,
                [("profiling", profile_attempts), ("tools", tools_attempts), ("agents", 1)],
                names)


def _workflow_plan(rng: random.Random, i: int, base_agents: list[str]) -> Plan:
    name = f"gen_flow_{i}"
    new = [f"Flow Agent {i} {j}" for j in range(2)]
    existing = rng.choice(base_agents)
    steps_xml = [("draft", new[0], "on_start", "request"), ("refine", new[1], "draft", "k_draft"),
                 ("review", existing, "refine", "k_refine")]
    events = ["<event><name>on_start</name><inputs><input><key>request</key><description>"
              "The request.</description></input></inputs><outputs><output><key>request</key>"
              "<description>The request.</description><action><type>RESULT</type></action>"
              "</output></outputs></event>"]
    for event, agent, source, in_key in steps_xml:
        out_key = "answer" if event == "review" else f"k_{event}"
        events.append(
            f"<event><name>{event}</name><inputs><input><key>{in_key}</key><description>"
            f"Input.</description></input></inputs><task>{event} request {i}.</task>"
            f"<outputs><output><key>{out_key}</key><description>Output.</description>"
            f"<action><type>RESULT</type></action></output></outputs><listen><event>"
            f"{source}</event></listen><agent><name>{agent}</name><model>m{i}</model>"
            f"</agent></event>")
    decls = "".join(f'<agent category="new"><name>{a}</name><description>{a} does step '
                    f"{k + 1}.</description></agent>" for k, a in enumerate(new))
    decls += f'<agent category="existing"><name>{existing}</name></agent>'
    xml = (f"<workflow><name>{name}</name><system_input><key>request</key><description>"
           f"The request.</description></system_input><system_output><key>answer</key>"
           f"<description>The answer.</description></system_output><agents>{decls}"
           f"</agents><events>{''.join(events)}</events></workflow>")
    canonical = forms.workflow_form_to_xml(forms.parse_workflow_form(xml))

    # pipelines 1, 9, 17, ... fail once: alternately the profile and the register phase
    profile_attempts = 2 if i % 16 == 1 else 1
    register_attempts = 2 if i % 16 == 9 else 1
    steps: list = []
    if profile_attempts == 2:
        steps.append(f"<workflow><name>{name}</name></workflow>")  # fails the schema
    steps.append(xml)
    for k, agent in enumerate(new):
        steps.append(ToolCall("create_agent", {
            "name": agent, "description": f"{agent} does step {k + 1}.",
            "instructions": f"{agent} does step {k + 1}."}))
    steps.append("created the agents")
    if register_attempts == 2:
        # the planned failure: a stray edit and no registration, rolled back
        steps += [ToolCall("create_agent", {"name": f"Stray Agent {i}"}), "done"]
    steps += [ToolCall("create_workflow", {"xml": canonical}), "registered"]
    return Plan(i, "workflow", f"build a workflow for request {i}", steps,
                [("profiling", profile_attempts), ("agents", 1), ("register", register_attempts)],
                [f"agents/{a}.def" for a in new] + [f"workflows/{name}.def"])


def _run(plan: Plan, store, backend, sleep: CountingSleep, workspace: Path):
    engine = engine_mod.Engine(mode=engine_mod.DIRECT, backend=backend, retry=retry_policy(sleep))
    suite = creation.ManagementToolSuite(store, engine=engine, workdir=workspace)
    pipeline = (creation.create_agents_pipeline if plan.kind == "agents"
                else creation.create_workflow_pipeline)
    return pipeline(plan.requirement, engine, store, suite=suite)


def _reset(state: State) -> None:
    shutil.rmtree(state.work, ignore_errors=True)
    shutil.copytree(state.base, state.work)


def setup(root: Path, seed: int) -> State:
    rng = random.Random(f"{NAME}:{seed}")
    base = registry.RegistryStore(root / "base")
    tools = []
    for k in range(BASE_TOOLS):
        builtin = registry.builtin_tool(rng.choice(registry.BUILTIN_TOOLS))
        builtin.name = f"shared_tool_{k:03d}"
        builtin.description = f"Shared tool {k}: {builtin.description}"
        base.put_tool(builtin)
        tools.append(builtin.name)
    agents = []
    for k in range(BASE_AGENTS):
        agent = AgentDefinition(name=f"Shared Agent {k:03d}", description=f"Shared agent {k}.",
                                instructions=f"Help with topic {rng.randint(0, 9999)}.",
                                tool_names=rng.sample(tools, 3))
        base.put_agent(agent)
        agents.append(agent.name)

    plans = [_agents_plan(rng, i, tools) if i % 2 == 0 else _workflow_plan(rng, i, agents)
             for i in range(PIPELINES)]
    state = State(root, root / "base", root / "work", plans)
    _reset(state)
    store = registry.RegistryStore(state.work)
    for plan in plans:
        plan.cassette = root / f"pipeline_{plan.index:02d}.cassette"
        inner = backends.ScriptedBackend(list(plan.steps))
        recorder = backends.CassetteBackend(plan.cassette, "record", inner=inner)
        report = _run(plan, store, recorder, state.sleep, root / "workspace")
        if len(inner) or [(p.phase, p.attempts) for p in report.phases] != plan.phases:
            raise RuntimeError(f"recording pipeline {plan.index} did not go as planned")
        plan.digest = registry_digest(state.work)
    return state


def check(plan: Plan, report, work: Path) -> list[str]:
    """Oracle: phase attempts as planned, registry bytes as recorded."""
    problems = []
    attempts = [(p.phase, p.attempts) for p in report.phases]
    if attempts != plan.phases or not all(p.ok for p in report.phases):
        problems.append(f"pipeline {plan.index}: phases {attempts}, planned {plan.phases}")
    missing = [name for name in plan.names if not (work / name).is_file()]
    if missing:
        problems.append(f"pipeline {plan.index}: missing {missing}")
    if registry_digest(work) != plan.digest:
        problems.append(f"pipeline {plan.index}: registry differs from the recording")
    return problems


def run_pass(state: State, m: Measurement) -> Measurement:
    _reset(state)
    store = registry.RegistryStore(state.work)
    for plan in state.plans:
        start = m.start()
        report = _run(plan, store, backends.CassetteBackend(plan.cassette, "replay"),
                      state.sleep, state.root / "workspace")
        elapsed = m.stop(start)
        m.sample("pipeline_ms", elapsed * 1000.0)
        if any(p.attempts > 1 for p in report.phases):
            m.sample("rollback_pipeline_ms", elapsed * 1000.0)
        m.add_work("pipelines", 1, elapsed)
        m.verdict(check(plan, report, state.work), plan.digest)
    return m
