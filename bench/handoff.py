"""handoff_sessions: orchestrator-workers sessions replayed from cassettes.

This is the per-turn path through kernel, engine, backends and registry
reads. Each session is one ``kernel.orchestrate`` call: an orchestrator and
2-3 workers take turns on one shared context, calling the builtin tools
``echo``, ``arithmetic_eval`` and ``read_text_file`` through a
``RegistryToolSuite``. Session lengths are long-tailed (about 20 to 300
turns), and half the sessions run in transformed mode, half in direct mode.
About 2% of replies are malformed calls and about 1% name an unknown tool.
Set-up records one cassette per session with an inner ``ScriptedBackend``;
the timed phase replays them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from agentos import backends, engine as engine_mod, kernel, registry
from agentos.kernel import ToolCall

from .common import CountingSleep, Measurement, TurnClock, retry_policy, sha

NAME = "handoff_sessions"

# Session lengths of one pass, in engine steps: a geometric ladder from 20 to
# 300 so every pass, whatever the seed, has the same long-tailed mix. The
# seed changes order, content and where errors fall.
LENGTHS = [round(20 * 1.28 ** i) for i in range(12)]
TOOLS = ("echo", "arithmetic_eval", "read_text_file")
WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
         "mike november oscar papa quebec romeo sierra tango uniform victor").split()

# (generic metric, reported name, unit, sample or work source, percentile)
REPORT = [("rate_per_s", "turns_per_s", "1/s", "turns", None),
          ("p50_ms", "turn_ms_p50", "ms", "turn_ms", 50),
          ("tail_ms", "turn_ms_p99", "ms", "turn_ms", 99),
          ("aux_p50_ms", "session_ms_p50", "ms", "session_ms", 50)]
# span-name prefixes predicted to hold most of the self time
PREDICTED = ("engine", "backends")


@dataclass
class Session:
    name: str
    mode: str
    workers: int
    length: int  # engine steps, one backend call each
    steps: list
    arithmetic: dict[str, str]  # expression -> value the generator computed
    cassette: Path
    context_sha: str = ""


@dataclass
class State:
    root: Path
    store: object
    tools: object
    sessions: list[Session]
    sleep: CountingSleep


def _agents(workers: int):
    names = [f"worker_{chr(ord('a') + i)}" for i in range(workers)]
    orchestrator = kernel.AgentDefinition(
        name="orchestrator", description="Routes work to the workers.",
        instructions="Delegate each part of the task, then summarize.",
        tool_names=["echo"], transfer_targets=names)
    team = [kernel.AgentDefinition(
        name=n, description=f"Worker {n}.",
        instructions=f"You are {n}. Use your tools, then hand back.",
        tool_names=list(TOOLS), transfer_targets=["orchestrator"]) for n in names]
    return orchestrator, team


def _shuffled(rng: random.Random, values: list):
    """Endless seeded permutations of ``values``: the mix is fixed, the order is not."""
    while True:
        yield from rng.sample(values, len(values))


def make_script(rng: random.Random, length: int, mode: str, workers: int,
                files: list[str]) -> tuple[list, dict[str, str]]:
    """Exactly ``length`` backend replies that end the session with final text.

    The seed picks values and order. How many calls of each kind a session
    makes, and how long their arguments are, follow from its length alone,
    so every seed asks the runtime for the same amount of work.
    """
    steps: list = []
    arithmetic: dict[str, str] = {}
    names = [f"worker_{chr(ord('a') + i)}" for i in range(workers)]
    tools, paths = _shuffled(rng, list(TOOLS)), _shuffled(rng, files)
    words, blocks = _shuffled(rng, list(range(3, 13))), _shuffled(rng, list(range(1, 13)))
    offset = rng.randrange(100)
    tool_steps = 0

    def reply(call: ToolCall):
        if mode == engine_mod.DIRECT:
            return call
        text = engine_mod.render_tool_call(call)
        return f"Next step.\n{text}" if len(steps) % 10 == 9 else text

    def tool_step(tool: str):
        nonlocal tool_steps
        tool_steps += 1
        slot = (tool_steps + offset) % 100
        if slot in (0, 50):  # 2% malformed
            if mode == engine_mod.DIRECT:
                return ToolCall("echo", {})  # missing required argument: E_ARGS
            return "<function=echo><parameter=text>unterminated"  # grammar error
        if slot == 25:  # 1% unknown tool
            return reply(ToolCall("no_such_tool", {"text": "x"}))
        if tool == "echo":
            return reply(ToolCall("echo", {"text": " ".join(rng.choices(WORDS, k=next(words)))}))
        if tool == "read_text_file":
            return reply(ToolCall("read_text_file", {"path": next(paths)}))
        a, b, c, d = (rng.randint(100, 999) for _ in range(4))
        expression = f"({a}+{b})*{c}-{d}"
        arithmetic[expression] = str((a + b) * c - d)
        return reply(ToolCall("arithmetic_eval", {"expression": expression}))

    remaining = length - 1  # the orchestrator's final answer
    while remaining > 0:
        if remaining >= 3:
            # orchestrator hands off; the worker calls tools, then hands back
            calls = min(next(blocks), remaining - 2)
            steps.append(reply(ToolCall(f"transfer_to_{rng.choice(names)}",
                                        {"message": f"part {len(steps)}"})))
            for _ in range(calls):
                steps.append(tool_step(next(tools)))
            steps.append(reply(ToolCall("transfer_to_orchestrator", {})))
            remaining -= calls + 2
        else:
            steps.append(tool_step("echo"))
            remaining -= 1
    steps.append("Summary: " + " ".join(rng.choices(WORDS, k=8)))
    return steps, arithmetic


def _run(session: Session, backend, tools, sleep: CountingSleep):
    orchestrator, team = _agents(session.workers)
    engine = engine_mod.Engine(mode=session.mode, backend=backend, retry=retry_policy(sleep))
    limits = kernel.OrchestrationLimits(max_turns=session.length + 1,
                                        max_handoffs=session.length)
    return kernel.orchestrate(orchestrator, team, f"Task for {session.name}.",
                              engine, tools, limits)


def setup(root: Path, seed: int) -> State:
    rng = random.Random(f"{NAME}:{seed}")
    store = registry.RegistryStore(root / "registry")
    for tool in TOOLS:
        store.put_tool(registry.builtin_tool(tool))
    work = root / "work"
    work.mkdir(parents=True, exist_ok=True)
    files = []
    for i in range(4):  # equal sizes, so which file a session reads costs the same
        name = f"notes_{i}.txt"
        lines = [" ".join(rng.choices(WORDS, k=10)) for _ in range(60)]
        (work / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        files.append(name)
    tools = registry.RegistryToolSuite(store, workdir=work)
    sleep = CountingSleep()

    order = list(range(len(LENGTHS)))
    rng.shuffle(order)
    sessions = []
    for i in order:
        # modes alternate so that each mode gets the longer session of every
        # other pair of neighbouring lengths
        mode = engine_mod.TRANSFORMED if i % 4 in (0, 3) else engine_mod.DIRECT
        workers = 2 + (i // 2) % 2
        steps, arithmetic = make_script(rng, LENGTHS[i], mode, workers, files)
        sessions.append(Session(f"s{i:02d}", mode, workers, LENGTHS[i], steps, arithmetic,
                                root / f"s{i:02d}.cassette"))
    for session in sessions:
        inner = backends.ScriptedBackend(list(session.steps))
        recorder = backends.CassetteBackend(session.cassette, "record", inner=inner)
        outcome = _run(session, recorder, tools, sleep)
        if outcome.kind != "completed" or len(inner) != 0:
            raise RuntimeError(f"recording {session.name} ended with {outcome.kind}")
        session.context_sha = sha(outcome.context.to_json())
    return State(root, store, tools, sessions, sleep)


def check(session: Session, outcome, calls: int) -> list[str]:
    """Oracle: the replay equals its recording and arithmetic is right."""
    problems = []
    if outcome.kind != "completed":
        problems.append(f"{session.name}: ended with {outcome.kind}: {outcome.reason}")
    if calls != session.length:
        problems.append(f"{session.name}: {calls} backend calls, planned {session.length}")
    if sha(outcome.context.to_json()) != session.context_sha:
        problems.append(f"{session.name}: replayed context differs from its recording")
    for turn in outcome.context:
        call = turn.tool_call
        if call is None or call.tool_name != "arithmetic_eval" or turn.observation is None:
            continue
        expected = session.arithmetic.get(call.arguments.get("expression", ""))
        if turn.observation.payload != expected:
            problems.append(f"{session.name}: arithmetic_eval gave "
                            f"{turn.observation.payload!r}, expected {expected!r}")
    return problems


def run_pass(state: State, m: Measurement) -> Measurement:
    for session in state.sessions:
        stamped = TurnClock(backends.CassetteBackend(session.cassette, "replay"))
        start = m.start()
        outcome = _run(session, stamped, state.tools, state.sleep)
        elapsed = m.stop(start)
        turns = stamped.turns_ms(start[-1] + elapsed)  # the wall clock at stop()
        for ms in turns:
            m.sample("turn_ms", ms)
        m.sample("session_ms", elapsed * 1000.0)
        m.add_work("turns", len(turns), elapsed)
        m.verdict(check(session, outcome, len(stamped.stamps)), sha(outcome.context.to_json()))
    return m
