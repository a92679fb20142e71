"""Acceptance gate: eight property checks, one printed verdict line each.

Each criterion prints exactly one PASS/FAIL line to the real stdout (pytest
capture bypassed) so a test-log reader can grade the run at a glance. A
criterion body that raises still prints its FAIL line before the failure
propagates.
"""

from __future__ import annotations

import io
import random
import sys
import threading
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest

from agentos.backends import CassetteBackend, ScriptedBackend
from agentos.cli import dispatch_command
from agentos.creation import (
    ManagementToolSuite,
    create_agents_pipeline,
    create_workflow_pipeline,
)
from agentos.engine import Engine, parse_transformed_call
from agentos.errors import ParseError, PhaseExhaustedError
from agentos.forms import parse_workflow_form, workflow_form_to_xml
from agentos.kernel import ToolCall
from agentos.ragstore import RagStore, chunk_text
from agentos.registry import RegistryStore, builtin_tool
from agentos.workflow import run_workflow

from conftest import MATH_VIEW, WIKI_VIEW, RouterBackend, read_fixture
from test_cli import record_greeter_cassette, record_math_cassette, MATH_FORM
from test_creation import (
    CREATE_AGGREGATOR,
    CREATE_GREETER_AGENT,
    CREATE_GREETING_TOOL,
    CREATE_SOLVER,
    GREETER_XML,
    GREETER_XML_BAD,
    TOOL_TEST_REPLY,
)
from test_engine_grammar import assert_round_trips, byte_index
from test_forms import FIXTURE_CASES, MUTANTS, run_mutant
from test_ragstore import brute_force_rank, lorem, oracle_windows
from test_viewport import fuzz_viewport_once
from test_workflow import CLAUDE

GPT4 = "gpt-4o-2024-08-06"
DEEPSEEK = "deepseek/deepseek-chat"
SEED = 20260816


@contextmanager
def verdict(capsys, num: int, label: str):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\nFAIL criterion {num}: {label}", flush=True)
        raise
    suffix = f" ({info['detail']})" if info["detail"] else ""
    with capsys.disabled():
        print(f"\nPASS criterion {num}: {label}{suffix}", flush=True)


def _math_form():
    return parse_workflow_form(read_fixture("math_voting_workflow.xml"))


def _wiki_form():
    return parse_workflow_form(read_fixture("wiki_article_workflow.xml"))


# ---------------------------------------------------------------------------
# 1. grammar round-trip + malformed offsets
# ---------------------------------------------------------------------------

def test_criterion_1_grammar(capsys):
    with verdict(capsys, 1, "grammar: 10^4 round-trips, malformed classes with byte offsets") as info:
        t0 = time.perf_counter()
        assert_round_trips(10_000)

        # multibyte prefix: offsets must count UTF-8 bytes, not characters
        p = "héllo 日本 "
        fn, pm = len("<function="), len("<parameter=")
        texts = [
            "just words, no call",
            p + "<function=9bad><parameter=x>1</parameter></function>",
            p + "<function=a><function=b></function></function>",
            p + "<function=a><parameter=x>1</parameter>"
                "<parameter=x>2</parameter></function>",
            p + "<function=a><parameter=x>abc</function>",
            p + "<function=a><parameter=x>1</parameter>",
            p + "<function=a>junk<parameter=x>1</parameter></function>",
            p + "<function=a><parameter=>v</parameter></function>",
        ]
        offsets = [
            0,
            byte_index(texts[1], "<function=") + fn,
            byte_index(texts[2], "<function=", 2),
            byte_index(texts[3], "<parameter=", 2),
            byte_index(texts[4], "<parameter="),
            byte_index(texts[5], "<function="),
            byte_index(texts[6], "junk"),
            byte_index(texts[7], "<parameter=") + pm,
        ]
        for text, offset in zip(texts, offsets):
            with pytest.raises(ParseError) as err:
                parse_transformed_call(text)
            assert err.value.code == "E_PARSE", text
            assert err.value.offset == offset, text

        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        info["detail"] = f"{elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. form validation matrix
# ---------------------------------------------------------------------------

def test_criterion_2_forms(capsys):
    with verdict(capsys, 2, "forms: 4 clean fixtures, 15 single-rule mutants") as info:
        t0 = time.perf_counter()
        for name, parse, validate, view in FIXTURE_CASES:
            form = parse(read_fixture(name))
            diagnostics = validate(form, view)
            assert diagnostics == [], f"{name}: {diagnostics}"
        for code, builder in MUTANTS:
            got = run_mutant(builder)
            assert got == {code}, f"mutant {code} produced {got}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        info["detail"] = f"{elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. workflow semantics suite
# ---------------------------------------------------------------------------

def _wiki_routes(replies: list) -> dict:
    return {CLAUDE: list(replies)}

NEGATIVE = "needs work\nSELECTED_OUTPUT: negative_feedback"
POSITIVE = "looks good\nSELECTED_OUTPUT: positive_feedback"


def test_criterion_3_workflow_semantics(capsys):
    with verdict(capsys, 3, "workflow: AND-join x1000, GOTO loop counts, loop abort, "
                    "serial==parallel") as info:
        t0 = time.perf_counter()
        math = _math_form()
        wiki = _wiki_form()

        # (a) the aggregator never runs before all three solvers complete
        violations: list[int] = []
        for i in range(1000):
            rng = random.Random(SEED + i)
            delays = {GPT4: rng.uniform(0, 0.001), CLAUDE: rng.uniform(0, 0.001),
                      DEEPSEEK: rng.uniform(0, 0.001)}
            done: set[str] = set()
            lock = threading.Lock()

            def solver(model):
                def step(request):
                    time.sleep(delays[model])
                    with lock:
                        done.add(model)
                    return f"answer from {model}"
                return step

            def aggregator(request):
                with lock:
                    seen = set(done)
                if seen != {GPT4, CLAUDE, DEEPSEEK}:
                    violations.append(i)
                return "vote"

            backend = RouterBackend({GPT4: [solver(GPT4)], CLAUDE: [solver(CLAUDE)],
                                     DEEPSEEK: [solver(DEEPSEEK), aggregator]})
            result = run_workflow(math, f"p{i}", Engine(mode="transformed",
                                                        backend=backend),
                                  registry=MATH_VIEW, parallel=True)
            assert result.status == "completed", result
        assert violations == [], f"AND-join violated on schedules {violations[:5]}"

        # (b) negative x2 then positive: the optimizer event runs exactly 3 times
        engine = Engine(mode="transformed", backend=RouterBackend(_wiki_routes(
            ["search", "outline v1", NEGATIVE, "outline v2", NEGATIVE,
             "outline v3", POSITIVE, "article"])))
        result = run_workflow(wiki, "topic", engine, registry=WIKI_VIEW)
        assert result.status == "completed"
        outline_runs = [line for line in result.trace
                        if line.startswith("run on_outline ")]
        assert len(outline_runs) == 3, result.trace

        # (c) always-negative evaluator aborts at the loop limit
        engine = Engine(mode="transformed", backend=RouterBackend(_wiki_routes(
            ["search"] + ["outline", NEGATIVE] * 4)))
        result = run_workflow(wiki, "topic", engine, registry=WIKI_VIEW)
        assert result.status == "aborted"
        assert result.error == "E_LOOP_LIMIT"
        assert result.trace[-1] == "abort workflow code=E_LOOP_LIMIT"

        # (d) serial and concurrent runs agree on both suite workflows
        suite_runs = [
            (math, MATH_VIEW, {GPT4: ["x=4"], CLAUDE: ["x=4"],
                               DEEPSEEK: ["x=5", "majority 4"]}),
            (wiki, WIKI_VIEW, _wiki_routes(
                ["search", "outline v1", NEGATIVE, "outline v2", POSITIVE,
                 "article"])),
        ]
        for form, view, routes in suite_runs:
            serial = run_workflow(form, "same input",
                                  Engine(mode="transformed",
                                         backend=RouterBackend(routes)),
                                  registry=view)
            concurrent = run_workflow(form, "same input",
                                      Engine(mode="transformed",
                                             backend=RouterBackend(routes)),
                                      registry=view, parallel=True)
            assert serial.status == concurrent.status == "completed"
            assert serial.output == concurrent.output
            assert serial.blackboard == concurrent.blackboard
            assert serial.trace == concurrent.trace

        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        info["detail"] = f"{elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4. majority voting vs brute-force oracle
# ---------------------------------------------------------------------------

def _answer_table() -> tuple[list[str], list[tuple[str, str, str]]]:
    """20 problems; solver accuracies 12/20, 12/20, 15/20 by construction.

    Overlap classes: unanimous (0-7), two-correct majorities (8-11),
    all-distinct with only the third solver right (12-14), shared wrong
    answers that outvote a lone correct one (15, 17, 19), and all-distinct
    with the third solver wrong (16, 18).
    """
    truth = [f"ans{i}" for i in range(20)]
    table = []
    for i, t in enumerate(truth):
        a1 = t if i <= 9 or i in (15, 16) else f"w1_{i}"
        a2 = t if i <= 7 or i in (10, 11, 17, 18) else f"w2_{i}"
        a3 = t if i <= 14 else f"w3_{i}"
        if i == 15:
            a2 = a3 = "shared_w15"
        if i == 17:
            a1 = a3 = "shared_w17"
        if i == 19:
            a1 = a2 = "shared_w19"
        table.append((a1, a2, a3))
    return truth, table


def _brute_force_vote(a: str, b: str, c: str) -> str:
    """Independent oracle: any answer matching another wins; ties go to c."""
    votes = [a, b, c]
    for candidate in votes:
        if sum(1 for v in votes if v == candidate) >= 2:
            return candidate
    return c


def _prompt_inputs(content: str) -> dict:
    """Pull the Inputs: block key/value lines out of an event prompt."""
    out = {}
    in_inputs = False
    for line in content.splitlines():
        if line == "Inputs:":
            in_inputs = True
            continue
        if in_inputs:
            if not line.startswith("- "):
                break
            key, value = line[2:].split(": ", 1)
            out[key] = value
    return out


def test_criterion_4_majority_voting(capsys):
    with verdict(capsys, 4, "majority voting matches brute-force oracle on 20/20") as info:
        truth, table = _answer_table()
        assert [sum(row[j] == truth[i] for i, row in enumerate(table))
                for j in range(3)] == [12, 12, 15]

        math = _math_form()
        matched = 0
        oracle_correct = 0
        for i, (a1, a2, a3) in enumerate(table):

            def scripted_vote(request):
                inputs = _prompt_inputs(request.messages[-1]["content"])
                ballots = [inputs["gpt4_solution"], inputs["claude_solution"],
                           inputs["deepseek_solution"]]
                best, best_count = ballots[2], 1
                for ballot in ballots:
                    count = ballots.count(ballot)
                    if count > best_count:
                        best, best_count = ballot, count
                return best

            backend = RouterBackend({GPT4: [a1], CLAUDE: [a2],
                                     DEEPSEEK: [a3, scripted_vote]})
            result = run_workflow(math, f"problem {i}",
                                  Engine(mode="transformed", backend=backend),
                                  registry=MATH_VIEW)
            assert result.status == "completed", (i, result)
            expected = _brute_force_vote(a1, a2, a3)
            assert result.output == expected, (i, result.output, expected)
            matched += 1
            oracle_correct += expected == truth[i]

        assert matched == 20
        assert oracle_correct == 15  # engineered: majority rescues 12-14, loses 15-19
        info["detail"] = f"{matched}/20 agree, vote accuracy {oracle_correct}/20"


# ---------------------------------------------------------------------------
# 5. pipeline cassette sessions
# ---------------------------------------------------------------------------

class CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return self.inner.complete(request)


def _record_session(cassette: Path, steps: list, session) -> None:
    backend = CassetteBackend(str(cassette), "record",
                              inner=ScriptedBackend(list(steps)))
    try:
        session(Engine(mode="direct", backend=backend, model=""))
    except PhaseExhaustedError:
        pass


def _replay_session(cassette: Path, session):
    backend = CountingBackend(CassetteBackend(str(cassette), "replay"))
    engine = Engine(mode="direct", backend=backend, model="")
    outcome = session(engine)
    return outcome, backend.calls


def _agents_session(root: Path, seed_echo: bool = False):
    def session(engine):
        store = RegistryStore(root)
        if seed_echo and "echo" not in store.names("tools"):
            store.put_tool(builtin_tool("echo"))
        baseline = store.snapshot()
        suite = ManagementToolSuite(store, engine=engine)
        try:
            report = create_agents_pipeline("make a greeter", engine, store,
                                            suite=suite, model="")
            return ("ok", report, store, baseline)
        except PhaseExhaustedError as err:
            return ("exhausted", err, store, baseline)
    return session


def _workflow_session(root: Path):
    def session(engine):
        store = RegistryStore(root)
        baseline = store.snapshot()
        suite = ManagementToolSuite(store, engine=engine)
        try:
            report = create_workflow_pipeline("vote on math", engine, store,
                                              suite=suite, model="")
            return ("ok", report, store, baseline)
        except PhaseExhaustedError as err:
            return ("exhausted", err, store, baseline)
    return session


def test_criterion_5_pipeline_cassettes(tmp_path, capsys):
    with verdict(capsys, 5, "pipelines: cassette sessions, call bounds, rollback") as info:
        max_attempts, max_turns = 3, 10
        total_calls = 0

        math_xml = read_fixture("math_voting_workflow.xml")
        register_call = ToolCall(
            "create_workflow",
            {"xml": workflow_form_to_xml(parse_workflow_form(math_xml))})
        stray = ToolCall("create_agent", {"name": "Stray Agent"})

        # (session steps, expected phase attempts, exhausted phase or None,
        #  exact call count, M-derived bound, session factory pairs)
        scenarios = [
            ("agents-valid-first",
             [GREETER_XML, CREATE_GREETING_TOOL, TOOL_TEST_REPLY,
              CREATE_GREETER_AGENT, "done"],
             {"profiling": 1, "tools": 1, "agents": 1}, None, 5,
             max_attempts * (1 + 2 * max_turns), _agents_session),
            ("agents-invalid-then-valid",
             [GREETER_XML_BAD, GREETER_XML, CREATE_GREETING_TOOL,
              TOOL_TEST_REPLY, CREATE_GREETER_AGENT, "done"],
             {"profiling": 2, "tools": 1, "agents": 1}, None, 6,
             max_attempts * (1 + 2 * max_turns), _agents_session),
            ("agents-exhaustion",
             ["not xml"] * 3,
             {"profiling": 3}, "profiling", 3, max_attempts, _agents_session),
            ("workflow-valid-first",
             [math_xml, CREATE_SOLVER, CREATE_AGGREGATOR, "created",
              register_call, "done"],
             {"profiling": 1, "agents": 1, "register": 1}, None, 6,
             max_attempts * (1 + 2 * max_turns), _workflow_session),
            ("workflow-invalid-then-valid",
             [_bad_math_xml(), math_xml, CREATE_SOLVER, CREATE_AGGREGATOR,
              "created", register_call, "done"],
             {"profiling": 2, "agents": 1, "register": 1}, None, 7,
             max_attempts * (1 + 2 * max_turns), _workflow_session),
            ("workflow-exhaustion",
             [math_xml, CREATE_SOLVER, CREATE_AGGREGATOR, "created"]
             + [stray, "forgot to register"] * 3,
             {"profiling": 1, "agents": 1, "register": 3}, "register", 10,
             max_attempts * (1 + 2 * max_turns), _workflow_session),
        ]

        for name, steps, attempts, exhausted_phase, exact_calls, bound, factory in scenarios:
            cassette = tmp_path / f"{name}.cassette"
            record_kwargs = {"seed_echo": True} if name == "agents-exhaustion" else {}
            _record_session(cassette, steps,
                            factory(tmp_path / f"{name}-rec", **record_kwargs))
            (status, payload, store, baseline), calls = _replay_session(
                cassette, factory(tmp_path / f"{name}-rep", **record_kwargs))

            assert calls == exact_calls, (name, calls)
            assert calls <= bound, (name, calls, bound)
            total_calls += calls

            if exhausted_phase is None:
                assert status == "ok", (name, payload)
                got = {r.phase: r.attempts for r in payload.phases}
                assert got == attempts, (name, got)
            else:
                assert status == "exhausted", (name, payload)
                assert payload.phase == exhausted_phase, (name, payload.phase)
                if exhausted_phase == "profiling":
                    # nothing before the failed phase: registry byte-identical
                    assert store.snapshot() == baseline, name
                else:
                    # earlier phases persist; the failed phase is rolled back
                    assert store.names("workflows") == [], name
                    assert store.names("agents") == [
                        "Math Solver Agent", "Vote Aggregator Agent"], name

        # the register-exhaustion end state equals a store built by replaying
        # only the successful phases, byte for byte
        expected_root = tmp_path / "expected-after-agents"
        expected = RegistryStore(expected_root)
        probe = ManagementToolSuite(expected)
        assert probe.run(CREATE_SOLVER).status == "ok"
        assert probe.run(CREATE_AGGREGATOR).status == "ok"
        final = RegistryStore(tmp_path / "workflow-exhaustion-rep")
        assert final.snapshot() == expected.snapshot()

        info["detail"] = f"6 sessions, {total_calls} replayed calls"


def _bad_math_xml() -> str:
    form = parse_workflow_form(read_fixture("math_voting_workflow.xml"))
    form.name = "parallel math solver"  # not an identifier: rule V1
    return workflow_form_to_xml(form)


# ---------------------------------------------------------------------------
# 6. RAG oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_6_rag(tmp_path, capsys):
    with verdict(capsys, 6, "RAG: top-6 == cosine oracle on 5 stores, 10^3 "
                    "chunk reconstructions") as info:
        t0 = time.perf_counter()
        rng = random.Random(SEED)

        for s in range(5):
            root = tmp_path / f"store{s}"
            store = RagStore(root)
            for d in range(8):
                text = lorem(rng, rng.randint(20, 1200))
                store.ingest_text("c", f"doc{d:02d}", text)
            total = store.stats("c")["chunks"]
            assert total <= 200, total
            for _ in range(4):
                query = lorem(rng, rng.randint(1, 8))
                hits = store.query("c", query, k=6)
                assert [(h.doc_id, h.ordinal) for h in hits] == \
                    brute_force_rank(store, root, "c", query, 6), (s, query)

        for _ in range(1000):
            n = rng.randint(0, 300)
            chunk = rng.randint(2, 80)
            overlap = rng.randint(0, chunk - 1)
            text = lorem(rng, n)
            tokens = text.split()
            chunks = chunk_text(text, "d", chunk_size=chunk, overlap=overlap)
            expected = oracle_windows(tokens, chunk, overlap)
            assert len(chunks) == len(expected)
            for got, (start, window) in zip(chunks, expected):
                assert got.token_start == start
                assert got.text == " ".join(window)

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        info["detail"] = f"{elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 7. viewport fuzz
# ---------------------------------------------------------------------------

def test_criterion_7_viewport(capsys):
    with verdict(capsys, 7, "viewport: 10^4 fuzz sessions hold all invariants") as info:
        t0 = time.perf_counter()
        for i in range(10_000):
            fuzz_viewport_once(random.Random(SEED + i))
        info["detail"] = f"{time.perf_counter() - t0:.2f}s"


# ---------------------------------------------------------------------------
# 8. CLI replay determinism
# ---------------------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path, capsys):
    with verdict(capsys, 8, "CLI: cassette replays byte-identical stdout and trace") as info:
        math_cassette = tmp_path / "math.cassette"
        record_math_cassette(math_cassette, tmp_path / "rec", "What is 2+2?",
                             ["4", "4", "5", "the votes pick 4"])

        def run_math(tag: str) -> tuple[str, bytes]:
            buf = io.StringIO()
            trace = tmp_path / f"trace-{tag}.txt"
            with redirect_stdout(buf):
                code = dispatch_command([
                    "run-workflow", MATH_FORM, "--input", "What is 2+2?",
                    "--registry-root", str(tmp_path / f"reg-{tag}"),
                    "--cassette", str(math_cassette),
                    "--cassette-mode", "replay", "--trace", str(trace)])
            assert code == 0
            return buf.getvalue(), trace.read_bytes()

        first, second = run_math("a"), run_math("b")
        assert first == second
        assert first[0] == "the votes pick 4\n"

        greeter_cassette = tmp_path / "greeter.cassette"
        record_greeter_cassette(greeter_cassette, tmp_path / "grec")

        def run_pipeline(tag: str) -> str:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = dispatch_command([
                    "create-agents", "--requirements", "make a greeter",
                    "--registry-root", str(tmp_path / f"preg-{tag}"),
                    "--mode", "direct", "--cassette", str(greeter_cassette),
                    "--cassette-mode", "replay"])
            assert code == 0
            return buf.getvalue()

        assert run_pipeline("a") == run_pipeline("b")
        info["detail"] = "2 commands x 2 runs"
