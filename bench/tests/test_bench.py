"""Self-tests of the benchmark: seeded inputs, oracles, spans and patching.

Run from the checkout root with ``python3 -m pytest -q bench/tests``. The
workloads are shrunk here so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import assembly, common, graphs, handoff, rag, run, tracing  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Every workload at a size that sets up in well under a second."""
    monkeypatch.setattr(handoff, "LENGTHS", [20, 26, 33])
    monkeypatch.setattr(graphs, "POOL", 4)
    monkeypatch.setattr(rag, "DOCS", 6)
    monkeypatch.setattr(rag, "OPS", 20)
    monkeypatch.setattr(assembly, "BASE_TOOLS", 8)
    monkeypatch.setattr(assembly, "BASE_AGENTS", 8)
    monkeypatch.setattr(assembly, "PIPELINES", 8)


WORKLOADS = [handoff, graphs, rag, assembly]


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_same_seed_gives_identical_inputs_and_cassettes(small, tmp_path, module):
    module.setup(tmp_path / "a", 7)
    module.setup(tmp_path / "b", 7)
    module.setup(tmp_path / "c", 8)
    first, second, other = (tree(tmp_path / name) for name in "abc")
    assert first and first == second
    assert first != other


def test_generated_graphs_validate_and_stay_narrow():
    sizes = graphs.pool_sizes()
    assert (sizes[0], sizes[-1]) == (graphs.MIN_EVENTS, graphs.MAX_EVENTS)
    graph = graphs.make_graph(random.Random(1), "g", 120, 2, False)
    form = graphs.forms.parse_workflow_form(graph.xml)
    assert graphs.forms.validate_workflow_form(form) == []
    assert len(form.events) == 120
    result = graphs.workflow.run_workflow(
        form, "x", graphs.engine_mod.Engine(mode="transformed", backend=graph.backend()))
    assert result.status == "completed" and result.output == graph.expected_output
    assert graphs._widest_round(result.trace) <= graphs.MAX_WIDTH


# ---------------------------------------------------------------------------
# oracles catch planted errors
# ---------------------------------------------------------------------------

def test_handoff_oracle_catches_a_wrong_arithmetic_result(small, tmp_path):
    state = handoff.setup(tmp_path, 3)
    session = next(s for s in state.sessions if s.arithmetic)
    clock = common.TurnClock(
        handoff.backends.CassetteBackend(session.cassette, "replay"))
    outcome = handoff._run(session, clock, state.tools, state.sleep)
    assert handoff.check(session, outcome, len(clock.stamps)) == []

    turn = next(t for t in outcome.context if t.tool_call is not None
                and t.tool_call.tool_name == "arithmetic_eval")
    turn.observation.payload = str(int(turn.observation.payload) + 1)
    problems = handoff.check(session, outcome, len(clock.stamps))
    assert any("arithmetic_eval" in p for p in problems)
    assert any("differs from its recording" in p for p in problems)
    assert handoff.check(session, outcome, len(clock.stamps) - 1)


def test_graph_oracle_catches_a_differing_run(small, tmp_path):
    state = graphs.setup(tmp_path, 3)
    graph = next(g for g in state.graphs if g.planned_gotos and not g.planned_aborts)
    serial = graphs._in_process(state, graph, parallel=False)
    parallel = graphs._in_process(state, graph, parallel=True)
    cli_run = graphs._via_cli(state, graph)
    assert graphs.check(graph, serial, parallel, cli_run) == []

    parallel.blackboard["planted"] = "x"
    assert any("parallel" in p for p in graphs.check(graph, serial, parallel, cli_run))
    code, payload, trace = cli_run
    assert any("CLI" in p for p in graphs.check(
        graph, serial, graphs._in_process(state, graph, True), (code, payload, trace[:-1])))
    serial.trace = [line for line in serial.trace if not line.startswith("goto ")]
    assert any("gotos" in p for p in graphs.check(graph, serial, serial, cli_run))


def test_graph_oracle_expects_the_exhausted_loop(small, tmp_path):
    state = graphs.setup(tmp_path, 3)
    graph = next(g for g in state.graphs if g.planned_aborts)
    serial = graphs._in_process(state, graph, parallel=False)
    assert (serial.status, serial.error) == ("aborted", "E_LOOP_LIMIT")
    graph.planned_aborts = 0
    assert graphs.check(graph, serial, serial, graphs._via_cli(state, graph))


def test_rag_oracle_catches_a_wrong_ranking(small, tmp_path):
    state = rag.setup(tmp_path, 3)
    oracle = rag.OracleIndex(state.oracle)
    state.store.ingest("c", state.docs_dir)
    text = next(first for kind, first, _ in state.ops if kind == "query")
    hits = state.store.query("c", text, k=rag.TOP_K)
    assert rag.check_query(oracle, text, hits) == []

    swapped = [hits[1], hits[0]] + hits[2:]
    if abs(hits[0].score - hits[1].score) > rag.TIE:
        assert rag.check_query(oracle, text, swapped)
    assert rag.check_query(oracle, text, hits[:-1])
    wrong = state.store.query("c", "zzz " + text, k=rag.TOP_K + 5)[-rag.TOP_K:]
    assert rag.check_query(oracle, text, wrong)


def test_rag_oracle_matches_store_chunking():
    text = " ".join(f"w{i}" for i in range(200))
    chunks = rag.ragstore.chunk_text(text, "d")
    assert [c.text for c in chunks] == rag.oracle_chunks(text)
    embedder = rag.ragstore.HashingEmbedder()
    assert (embedder.embed(chunks[1].text) == rag.oracle_embed(chunks[1].text)).all()


def test_assembly_oracle_catches_a_changed_registry(small, tmp_path):
    state = assembly.setup(tmp_path, 3)
    m = assembly.run_pass(state, common.Measurement(tmp_path / "calibration"))
    assert m.failed == 0 and m.attempted == assembly.PIPELINES
    plan = state.plans[-1]
    report = type("Report", (), {"phases": [
        type("Phase", (), {"phase": p, "attempts": a, "ok": True})() for p, a in plan.phases]})()
    assert assembly.check(plan, report, state.work) == []

    victim = next(state.work.glob("agents/*.def"))
    victim.write_text(victim.read_text() + " ", encoding="utf-8")
    assert any("differs" in p for p in assembly.check(plan, report, state.work))
    report.phases[0].attempts += 1
    assert any("planned" in p for p in assembly.check(plan, report, state.work))


def test_planned_failures_cause_rollbacks(small, tmp_path):
    state = assembly.setup(tmp_path, 3)
    retried = [p for p in state.plans if any(a > 1 for _, a in p.phases)]
    assert retried and len(retried) < len(state.plans)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["parent", 0.0, 10.0, tracing.NO_PARENT, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],    # overlaps a, as a parallel round's children do
        ["c", 8.0, 12.0, 0, 0],   # runs past the parent: only 8..10 counts
        ["grandchild", 1.5, 2.5, 1, 0],
    ]
    assert tracing.covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    agg = tracing.aggregate(spans)
    assert agg["parent"] == {"s": 10.0, "self_s": pytest.approx(4.0), "n": 1}


def test_worker_threads_get_their_own_stack():
    rec = tracing.SpanRecorder()
    outer = rec.start("outer")
    seen = {}

    def work(name):
        index = rec.start(name)
        inner = rec.start(name + ".inner")
        seen[name] = (rec.spans[index][3], rec.spans[inner][3], index)
        rec.end(inner)
        rec.end(index)

    threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    rec.end(outer)
    for parent, inner_parent, index in seen.values():
        assert parent == outer and inner_parent == index
    assert all(span[2] >= span[1] for span in rec.spans)


def test_combine_keeps_each_operations_fastest_of_three(tmp_path):
    passes = []
    for values, busy in (([5.0, 1.0], 6.0), ([3.0, 4.0], 7.0), ([4.0, 2.0], 5.0)):
        m = common.Measurement(tmp_path, samples={"op_ms": values}, work={"ops": 2},
                               busy_s={"ops": busy})
        m.verdict([], "x")
        passes.append(m)
    out = common.combine(passes)
    assert out.samples["op_ms"] == [3.0, 1.0]
    assert out.work["ops"] / out.busy_s["ops"] == pytest.approx(2 / 5.0)
    assert out.attempted == 3 and out.failed == 0


def test_calibration_scales_each_stretch_of_timed_work(tmp_path, monkeypatch):
    speeds = iter([common.Speed(cpu=0.004, files=0.004), common.Speed(cpu=0.004, files=0.012),
                   common.Speed(cpu=0.001, files=0.004)])
    # (user, wall) marks at start and stop of two operations; the oracle
    # work between them (user 0.5 -> 10.0) must not enter the factor
    marks = iter([(0.0, 0.0), (0.5, 1.0), (10.0, 20.0), (10.2, 20.2)])
    monkeypatch.setattr(common, "calibrate", lambda folder: next(speeds))
    monkeypatch.setattr(common, "usage", lambda: next(marks))

    m = common.Measurement(tmp_path)
    elapsed = m.stop(m.start())
    m.sample("op_ms", elapsed * 1000.0)
    m.add_work("ops", 1, elapsed)
    m.checkpoint(force=True)
    # cpu and files 2x slower than the reference on average: user 0.5 s
    # scaled by the CPU kernel, the other 0.5 s by the file kernel
    assert m.samples["op_ms"] == pytest.approx([1000.0 * (0.25 + 0.25)])

    elapsed = m.stop(m.start())
    m.sample("op_ms", elapsed * 1000.0)
    m.add_work("ops", 1, elapsed)
    m.checkpoint(force=True)
    # only the two calibrations around the stretch count: cpu 0.0025 s on average
    assert m.samples["op_ms"][1] == pytest.approx(200.0 * 0.002 / 0.0025)
    assert m.busy_s["ops"] == pytest.approx(0.5 + 0.16)
    assert len(m.speeds) == 3


# ---------------------------------------------------------------------------
# patching and traced runs
# ---------------------------------------------------------------------------

def bindings() -> dict:
    import agentos  # noqa: F401

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "agentos" or name.startswith("agentos."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_unpatching_restores_every_original_object():
    before = bindings()
    patch = tracing.instrument(tracing.SpanRecorder())
    during = bindings()
    changed = [key for key in before if during[key] is not before[key]]
    assert len(changed) >= 40
    # every binding of validate_workflow_form is wrapped, not only the defining one
    assert {key[0] for key in changed if key[-1] == "validate_workflow_form"} >= {
        "agentos.forms", "agentos.workflow", "agentos.registry", "agentos.creation",
        "agentos.cli"}
    restored = patch.restore()
    assert tracing.all_original(restored)
    after = bindings()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_traced_outputs_equal_untraced_outputs(small, tmp_path, module):
    folder = tmp_path / "calibration"
    plain = module.run_pass(module.setup(tmp_path / "plain", 5), common.Measurement(folder))
    rec = tracing.SpanRecorder()
    patch = tracing.instrument(rec)
    try:
        traced = module.run_pass(module.setup(tmp_path / "traced", 5),
                                 common.Measurement(folder))
    finally:
        patch.restore()
    assert plain.failed == traced.failed == 0
    assert plain.outputs == traced.outputs
    names = {span[0] for span in rec.spans}
    assert any(name.startswith(module.PREDICTED) for name in names)


# ---------------------------------------------------------------------------
# the command and its declared metrics
# ---------------------------------------------------------------------------

def test_declared_metrics_match_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in run.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads())
    for module in WORKLOADS:
        assert {generic for generic, *_ in module.REPORT} | {"setup_s", "peak_rss_mb"} == {
            name for name, _ in run.END_TO_END}


def test_wrong_output_makes_the_command_fail(small, monkeypatch, capsys):
    monkeypatch.setattr(rag, "check_query", lambda oracle, text, hits: ["planted"])
    code = run.main(["--workload", "rag_corpus", "--seed", "1", "--seconds", "0",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rag_corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
