"""Workflow execution: compilation, output selection, rounds, GOTO, aborts."""

import threading

import pytest

from agentos.backends import ScriptedBackend
from agentos.engine import Engine
from agentos.errors import (
    E_LOOP_LIMIT,
    E_MISSING_OUTPUT,
    E_NO_OUTPUT,
    E_OUTPUT_UNDECLARED,
    BackendError,
    InvalidFormError,
)
from agentos.forms import (
    ActionSpec,
    GlobalVar,
    KeyDesc,
    ToolRef,
    WorkflowAgentDecl,
    parse_workflow_form,
    validate_workflow_form,
)
from agentos.kernel import LoopLimits, ToolCall
from agentos.workflow import (
    PARALLEL_WORKERS,
    compile_graph,
    declared_agent,
    forward_closure,
    make_agent_resolver,
    render_event_prompt,
    run_workflow,
    select_output,
)

from conftest import MATH_VIEW, WIKI_VIEW, RouterBackend

CLAUDE = "claude-3-5-sonnet-20241022"


def wiki_engine(replies):
    """All wiki events share one model, so one FIFO queue drives the run."""
    return Engine(mode="transformed",
                  backend=RouterBackend({CLAUDE: list(replies)}), model="")


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def test_compile_ranks_and_order(math_form, wiki_form):
    math_graph = compile_graph(math_form, MATH_VIEW)
    assert [(ce.spec.name, ce.rank) for ce in math_graph.events] == [
        ("on_start", 0), ("solve_with_gpt4", 1), ("solve_with_claude", 1),
        ("solve_with_deepseek", 1), ("aggregate_solutions", 2)]
    wiki_graph = compile_graph(wiki_form, WIKI_VIEW)
    assert [ce.rank for ce in wiki_graph.events] == [0, 1, 2, 3, 4]


def test_compile_rejects_invalid(wiki_form):
    wiki_form.events[1].listen = []
    with pytest.raises(InvalidFormError) as err:
        compile_graph(wiki_form, WIKI_VIEW)
    assert any(d.code == "V4" for d in err.value.diagnostics)


def test_forward_closure(wiki_form):
    graph = compile_graph(wiki_form, WIKI_VIEW)
    assert forward_closure(graph, "on_outline") == {
        "on_outline", "on_evaluate", "on_write"}
    assert forward_closure(graph, "on_write") == {"on_write"}


# ---------------------------------------------------------------------------
# output selection
# ---------------------------------------------------------------------------

def _evaluate_spec(wiki_form):
    return wiki_form.events[3]  # two declared outputs


def _search_spec(wiki_form):
    return wiki_form.events[1]  # one declared output


def test_select_output_marker_consumed(wiki_form):
    spec = _evaluate_spec(wiki_form)
    picked = select_output("The outline is weak.\nSELECTED_OUTPUT: negative_feedback", spec)
    assert picked == ("negative_feedback", "The outline is weak.")


def test_select_output_single_is_lenient(wiki_form):
    spec = _search_spec(wiki_form)
    assert select_output("plain reply, no marker", spec) == \
        ("search_result", "plain reply, no marker")
    # but an explicit marker still wins and is consumed
    assert select_output("body\nSELECTED_OUTPUT: search_result", spec) == \
        ("search_result", "body")


def test_select_output_error_codes(wiki_form):
    multi = _evaluate_spec(wiki_form)
    assert select_output("SELECTED_OUTPUT: unheard_of\nbody", multi) == E_OUTPUT_UNDECLARED
    assert select_output("no marker at all", multi) == E_NO_OUTPUT


def test_render_event_prompt(wiki_form):
    spec = _evaluate_spec(wiki_form)
    prompt = render_event_prompt(spec, [("outline", "I. Intro")], {})
    lines = prompt.splitlines()
    assert lines[0].startswith("Task:")
    assert "- outline: I. Intro" in lines
    assert any(line.startswith("- positive_feedback:") and "(condition:" in line
               for line in lines)
    assert lines[-1] == ('End your reply with a line "SELECTED_OUTPUT: <key>" '
                         'naming one declared output key.')


# ---------------------------------------------------------------------------
# straight-line and fan-out execution
# ---------------------------------------------------------------------------

MATH_ROUTES = {
    "gpt-4o-2024-08-06": ["x = 4"],
    CLAUDE: ["x = 4"],
    "deepseek/deepseek-chat": ["x = 5", "majority says 4"],
}


def test_math_workflow_serial(math_form):
    engine = Engine(mode="transformed", backend=RouterBackend(MATH_ROUTES))
    result = run_workflow(math_form, "solve 2x=8", engine, registry=MATH_VIEW)
    assert result.status == "completed"
    assert result.output == "majority says 4"
    assert result.blackboard["math_problem"] == "solve 2x=8"
    assert result.blackboard["gpt4_solution"] == "x = 4"
    # the fan-out round dispatches solvers in document order
    runs = [line for line in result.trace if line.startswith("run ")]
    assert runs == [
        "run on_start agent=- model=-",
        "run solve_with_gpt4 agent=Math Solver Agent model=gpt-4o-2024-08-06",
        "run solve_with_claude agent=Math Solver Agent model=" + CLAUDE,
        "run solve_with_deepseek agent=Math Solver Agent model=deepseek/deepseek-chat",
        "run aggregate_solutions agent=Vote Aggregator Agent model=deepseek/deepseek-chat",
    ]
    assert result.trace[-1] == "complete output=final_solution"
    assert result.trace.count("round 1") == 1 and "round 3" in result.trace


def test_math_workflow_parallel_trace_identical(math_form):
    serial = run_workflow(
        math_form, "solve 2x=8",
        Engine(mode="transformed", backend=RouterBackend(MATH_ROUTES)),
        registry=MATH_VIEW)
    parallel = run_workflow(
        math_form, "solve 2x=8",
        Engine(mode="transformed", backend=RouterBackend(MATH_ROUTES)),
        registry=MATH_VIEW, parallel=True)
    assert parallel.status == "completed"
    assert parallel.trace == serial.trace
    assert parallel.blackboard == serial.blackboard
    assert parallel.output == serial.output


def test_agents_are_resolved_on_the_calling_thread(math_form):
    calls = []
    resolve = make_agent_resolver(math_form)

    def recording(ref):
        calls.append((ref.model, threading.get_ident()))
        return resolve(ref)

    result = run_workflow(math_form, "solve 2x=8",
                          Engine(mode="transformed", backend=RouterBackend(MATH_ROUTES)),
                          registry=MATH_VIEW, resolve_agent=recording, parallel=True)
    assert result.status == "completed"
    # once per agent event, before round 1, none from the pool of the solvers' round
    assert calls == [(model, threading.get_ident()) for model in (
        "gpt-4o-2024-08-06", CLAUDE, "deepseek/deepseek-chat", "deepseek/deepseek-chat")]


def test_wiki_goto_loop_then_complete(wiki_form):
    engine = wiki_engine([
        "search result text",
        "outline v1",
        "needs work\nSELECTED_OUTPUT: negative_feedback",
        "outline v2",
        "looks good\nSELECTED_OUTPUT: positive_feedback",
        "final article",
    ])
    result = run_workflow(wiki_form, "the topic", engine, registry=WIKI_VIEW)
    assert result.status == "completed"
    assert result.output == "final article"
    assert "goto on_evaluate -> on_outline count=1 limit=3" in result.trace
    resets = [line for line in result.trace if line.startswith("reset ")]
    assert resets == ["reset on_outline", "reset on_evaluate", "reset on_write"]
    assert result.trace.count("run on_outline agent=Outline Agent model=" + CLAUDE) == 2
    # the rewound key was removed, then re-published with the new value
    assert result.blackboard["outline"] == "outline v2"
    assert result.blackboard["positive_feedback"] == "looks good"
    assert "negative_feedback" not in result.blackboard


def test_wiki_goto_exhaustion_aborts(wiki_form):
    replies = ["search result text"]
    for _ in range(4):
        replies.append("outline draft")
        replies.append("still bad\nSELECTED_OUTPUT: negative_feedback")
    result = run_workflow(wiki_form, "topic", wiki_engine(replies), registry=WIKI_VIEW)
    assert result.status == "aborted"
    assert result.error == E_LOOP_LIMIT
    assert "goto on_evaluate -> on_outline count=4 limit=3" in result.trace
    assert result.trace[-1] == "abort workflow code=" + E_LOOP_LIMIT
    # the fourth rewind never happens: no resets after the overrun
    overrun = result.trace.index("goto on_evaluate -> on_outline count=4 limit=3")
    assert all(not line.startswith("reset ") for line in result.trace[overrun:])


def _event(name, listen, key, model, action="<type>RESULT</type>"):
    return f"""<event><name>{name}</name>
        <outputs><output><key>{key}</key><description>d</description>
            <action>{action}</action></output></outputs>
        <listen><event>{listen}</event></listen>
        <agent><name>Worker</name><model>{model}</model></agent></event>"""


def _workflow(name, output_key, events):
    """A workflow of on_start (passing ``topic`` through) and ``events``."""
    return f"""<workflow><name>{name}</name>
    <system_input><key>topic</key><description>d</description></system_input>
    <system_output><key>{output_key}</key><description>d</description></system_output>
    <agents><agent category="new"><name>Worker</name><description>w</description></agent></agents>
    <events>
        <event><name>on_start</name>
            <inputs><input><key>topic</key><description>d</description></input></inputs>
            <outputs><output><key>topic</key><description>d</description>
                <action><type>RESULT</type></action></output></outputs></event>
        {"".join(events)}
    </events></workflow>"""


# on_start -> T -> B and on_start -> X -> S; S sorts before B in the same
# round and its GOTO rewinds T, which rewinds B before B's result commits.
SAME_ROUND_GOTO_XML = _workflow("same_round_goto", "b_out", [
    _event("T", "on_start", "t_out", "m_t"),
    _event("X", "on_start", "x_out", "m_x"),
    _event("S", "X", "s_out", "m_s", "<type>GOTO</type><value>T</value>"),
    _event("B", "T", "b_out", "m_b"),
])


def test_same_round_goto_discards_stale_result():
    form = parse_workflow_form(SAME_ROUND_GOTO_XML)
    results = []
    for parallel in (False, True):
        routes = {"m_t": ["t1", "t2"], "m_x": ["x1"], "m_s": ["s1"],
                  "m_b": ["stale b", "fresh b"]}
        backend = RouterBackend(routes)
        results.append(run_workflow(form, "topic", Engine("transformed", backend),
                                    parallel=parallel))
        assert backend.calls == 6
    serial, parallel = results
    assert serial.status == "completed"
    assert serial.trace.index("commit S action=GOTO key=s_out") \
        < serial.trace.index("reset B") < serial.trace.index("discard B")
    assert "commit B action=RESULT key=b_out" in serial.trace
    assert serial.trace.count("run B agent=Worker model=m_b") == 2
    assert serial.output == "fresh b"
    assert parallel.trace == serial.trace
    assert parallel.blackboard == serial.blackboard


# on_start -> first and on_start -> side: first takes its GOTO output, which
# rewinds side, so all events complete while first's RESULT key never lands
MISSING_OUTPUT_XML = _workflow("missing_output", "answer", [
    """<event><name>first</name>
        <outputs>
            <output><key>answer</key><description>d</description><condition>done</condition>
                <action><type>RESULT</type></action></output>
            <output><key>again</key><description>d</description><condition>not done</condition>
                <action><type>GOTO</type><value>side</value></action></output></outputs>
        <listen><event>on_start</event></listen>
        <agent><name>Worker</name><model>m_first</model></agent></event>""",
    _event("side", "on_start", "side_out", "m_side"),
])


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_a_completed_run_without_the_system_output_fails(parallel):
    form = parse_workflow_form(MISSING_OUTPUT_XML)
    assert validate_workflow_form(form) == []
    backend = RouterBackend({"m_first": ["retry it\nSELECTED_OUTPUT: again"],
                             "m_side": ["side v1", "side v2"]})
    result = run_workflow(form, "topic", Engine("transformed", backend), parallel=parallel)
    assert (result.status, result.error) == ("error", E_MISSING_OUTPUT)
    assert result.output is None
    assert result.blackboard == {"topic": "topic", "again": "retry it", "side_out": "side v2"}
    assert result.trace[-6:] == [
        "reset side", "discard side", "round 3", "run side agent=Worker model=m_side",
        "commit side action=RESULT key=side_out", "fail workflow code=" + E_MISSING_OUTPUT]
    assert backend.calls == 3


def test_a_declared_agent_keeps_the_first_of_a_repeated_tool(math_form):
    decl = WorkflowAgentDecl("Scout Agent", "new", "Scout.",
                             [ToolRef("echo"), ToolRef("read_text_file"), ToolRef("echo")])
    assert declared_agent(math_form, decl).tool_names == ["echo", "read_text_file"]


def test_long_chain_in_reverse_document_order():
    # step_400 listens to step_399 ... step_1 listens to on_start, but the
    # document lists them from step_400 down: ranks must not recurse
    depth = 400
    form = parse_workflow_form(_workflow("reverse_chain", f"k{depth}", [
        _event(f"step_{i}", f"step_{i - 1}" if i > 1 else "on_start", f"k{i}", "m")
        for i in range(depth, 0, -1)]))
    assert validate_workflow_form(form) == []
    graph = compile_graph(form)
    assert [(ce.spec.name, ce.rank) for ce in graph.events[:2] + graph.events[-1:]] == [
        ("on_start", 0), ("step_1", 1), (f"step_{depth}", depth)]
    serial, parallel = [run_workflow(form, "topic", Engine("transformed", ScriptedBackend(
                            [f"value {i}" for i in range(1, depth + 1)])), parallel=parallel)
                        for parallel in (False, True)]
    assert serial.status == "completed"
    assert serial.output == f"value {depth}"
    assert serial.trace.count("round 1") == 1 and f"round {depth + 1}" in serial.trace
    assert parallel.trace == serial.trace


def test_parallel_round_threads_are_capped():
    width = PARALLEL_WORKERS + 8
    form = parse_workflow_form(_workflow("wide_round", "k0", [
        _event(f"fan_{i}", "on_start", f"k{i}", "m") for i in range(width)]))

    def run(parallel):
        threads = set()
        crowded = threading.Event()

        def reply(request):
            threads.add(threading.get_ident())
            if len(threads) > PARALLEL_WORKERS:
                crowded.set()
            if parallel:
                # hold every worker, so a pool without a cap would start one
                # thread per ready event
                crowded.wait(timeout=0.2)
            return "done"

        engine = Engine("transformed", ScriptedBackend([reply] * width))
        return run_workflow(form, "topic", engine, parallel=parallel), threads

    (serial, _), (parallel, threads) = run(False), run(True)
    assert serial.status == "completed"
    assert serial.trace.count("round 2") == 1 and "round 3" not in serial.trace
    assert 1 < len(threads) <= PARALLEL_WORKERS
    assert parallel.trace == serial.trace
    assert parallel.blackboard == serial.blackboard


def test_goto_limit_override(wiki_form):
    wiki_form.global_variables.append(
        GlobalVar(key="max_iterations", description="loop budget", value="1"))
    replies = ["search result text"]
    for _ in range(2):
        replies.append("outline draft")
        replies.append("still bad\nSELECTED_OUTPUT: negative_feedback")
    result = run_workflow(wiki_form, "topic", wiki_engine(replies), registry=WIKI_VIEW)
    assert result.status == "aborted"
    assert "goto on_evaluate -> on_outline count=2 limit=1" in result.trace


def test_abort_action(wiki_form):
    wiki_form.events[3].outputs[0].action = ActionSpec("ABORT")
    engine = wiki_engine([
        "search result text",
        "outline v1",
        "stop here\nSELECTED_OUTPUT: positive_feedback",
    ])
    result = run_workflow(wiki_form, "topic", engine, registry=WIKI_VIEW)
    assert result.status == "aborted"
    assert result.error is None
    assert result.reason == "stop here"
    assert "commit on_evaluate action=ABORT key=positive_feedback" in result.trace
    assert result.trace[-1] == "abort workflow"


# ---------------------------------------------------------------------------
# unusable replies
# ---------------------------------------------------------------------------

def test_retry_recovers_event(wiki_form):
    engine = wiki_engine([
        "search result text",
        "outline v1",
        "oops\nSELECTED_OUTPUT: wrong_key",    # undeclared, retried once
        "fine\nSELECTED_OUTPUT: positive_feedback",
        "final article",
    ])
    result = run_workflow(wiki_form, "topic", engine, registry=WIKI_VIEW)
    assert result.status == "completed"
    assert "retry on_evaluate code=" + E_OUTPUT_UNDECLARED in result.trace


def test_retry_exhaustion_fails_event(wiki_form):
    engine = wiki_engine([
        "search result text",
        "outline v1",
        "no marker first",
        "no marker second",
    ])
    result = run_workflow(wiki_form, "topic", engine, registry=WIKI_VIEW)
    assert result.status == "error"
    assert result.error == E_NO_OUTPUT
    assert "fail on_evaluate code=" + E_NO_OUTPUT in result.trace
    assert "on_evaluate" in result.reason


def model_down(request):
    raise BackendError("model down")


@pytest.mark.parametrize("steps,kind", [
    ([ToolCall("echo", {"text": "hi"})] * 2, "turn_limit"),
    ([model_down] * 2, "aborted"),
], ids=["turn-limit", "aborted"])
def test_agent_run_that_does_not_complete_fails_the_event(math_form, steps, kind):
    # both attempts of the first solver end without a reply, and so do the
    # other solvers of its round
    engine = Engine(mode="transformed", backend=ScriptedBackend(steps + [model_down] * 4))
    result = run_workflow(math_form, "solve 2x=8", engine, registry=MATH_VIEW,
                          limits=LoopLimits(max_turns=1))
    assert (result.status, result.error) == ("error", E_NO_OUTPUT)
    assert result.reason.startswith(f"solve_with_gpt4: agent run ended with {kind}: ")
    assert result.trace[-2:] == ["retry solve_with_gpt4 code=" + E_NO_OUTPUT,
                                 "fail solve_with_gpt4 code=" + E_NO_OUTPUT]


def test_trace_has_no_timestamps(wiki_form):
    engine = wiki_engine(["search result text", "outline v1",
                          "ok\nSELECTED_OUTPUT: positive_feedback", "final article"])
    result = run_workflow(wiki_form, "topic", engine, registry=WIKI_VIEW)
    import re
    assert result.status == "completed"
    for line in result.trace:
        assert not re.search(r"\d{2}:\d{2}", line)
        assert not re.search(r"\d{4}-\d{2}-\d{2}", line)
