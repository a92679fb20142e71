"""Offline benchmark of the agentos runtime.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every workload is a closed loop: one client
in one process, no think time, each call starting when the previous one has
returned. Inputs are generated from ``--seed``; model replies come only from
``ScriptedBackend``, cassettes recorded from it in set-up, or a router of
scripted replies. Whole passes over the workload's fixed input set run, at
least three and more while the next one still fits in ``--seconds``. Set-up
runs three times, once before the passes and twice spread between them,
and the fastest is ``setup_s``. Times are scaled
to a reference machine speed by calibration kernels (see ``common.py`` and
``README.md``), each latency sample is an operation's fastest of three
passes, and each rate uses the fastest pass.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` the workload runs untraced for half
the time, then the same passes again with every layer boundary wrapped in a
timing span, and the last line carries the per-layer metrics (per pass)
plus the tracing overhead. The lines before it are a report for people: the
workload's own metric names with sample counts, and in a traced run the top
self-time spans and whether they match the workload's prediction. The exit
code is 0 only when every output was correct.

Everything is written under ``.bench_tmp/`` in the checkout and removed at
exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
MIN_PASSES = 3  # the noise filter keeps the fastest of three passes
TOP_SPANS = 10

PER_LAYER = [
    # (name, unit); values are per pass, except ratios, trace.* and
    # backends.cassette_record.s, which is per set-up
    ("kernel.run_agent_loop.self_s", "s"), ("kernel.turns", "count"),
    ("kernel.handoffs", "count"),
    ("engine.build_messages.s", "s"), ("engine.build_messages.messages", "count"),
    ("engine.render_transformed_schema.s", "s"), ("engine.scan_transformed_call.s", "s"),
    ("engine.parse_errors", "count"),
    ("backends.request_digest.s", "s"), ("backends.request_digest.bytes", "bytes"),
    ("backends.cassette.self_s", "s"), ("backends.cassette.hits", "count"),
    ("backends.cassette.misses", "count"), ("backends.retries", "count"),
    ("backends.cassette_record.s", "s"),
    ("forms.parse_workflow_form.s", "s"), ("forms.validate_workflow_form.s", "s"),
    ("forms.validate_workflow_form.events", "count"), ("forms.workflow_form_to_xml.s", "s"),
    ("forms.parse_agent_form.s", "s"), ("forms.validate_agent_form.s", "s"),
    ("workflow.compile_graph.self_s", "s"), ("workflow.ready_set.s", "s"),
    ("workflow.rounds", "count"), ("workflow.execute_event.self_s", "s"),
    ("workflow.apply_outcome.s", "s"), ("workflow.run_workflow.self_s", "s"),
    ("workflow.events_run", "count"), ("workflow.commits", "count"),
    ("workflow.resets", "count"), ("workflow.discards", "count"),
    ("workflow.commit_ratio", "ratio"), ("workflow.parallel_threads", "count"),
    ("registry.get_tool.s", "s"), ("registry.get_tool.calls", "count"),
    ("registry.get_agent.s", "s"), ("registry.tool_suite_run.s", "s"),
    ("registry.snapshot.s", "s"), ("registry.snapshot.bytes", "bytes"),
    ("registry.restore.s", "s"), ("registry.restore.files", "count"),
    ("registry.put.s", "s"), ("registry.view.s", "s"),
    ("creation.mgmt_run.s", "s"), ("creation.phase_attempts", "count"),
    ("creation.rollbacks", "count"), ("creation.phase_success_ratio", "ratio"),
    ("ragstore.ingest_text.s", "s"), ("ragstore.ingest_text.calls", "count"),
    ("ragstore.bytes_written", "bytes"), ("ragstore.embed.s", "s"),
    ("ragstore.chunk_text.s", "s"), ("ragstore.query.self_s", "s"),
    ("ragstore.rows_scored", "count"),
    ("cli.dispatch_command.self_s", "s"),
    ("trace.untraced_s", "s"), ("trace.traced_s", "s"), ("trace.overhead_ratio", "ratio"),
]
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("rate_per_s", "1/s"),
              ("p50_ms", "ms"), ("tail_ms", "ms"), ("aux_p50_ms", "ms")]


def workloads() -> dict:
    from bench import assembly, graphs, handoff, rag

    return {module.NAME: module for module in (handoff, graphs, rag, assembly)}


def run_passes(module, state, folder: Path, seconds: float, passes: int | None = None,
               recorder=None, between=None):
    """At least MIN_PASSES whole passes, then more while the next still fits
    in ``seconds``; or exactly ``passes`` of them. ``between(elapsed)`` runs
    after each pass and its time does not count against ``seconds``.
    Returns (list of pass measurements, wall seconds of the passes). The
    calibration kernels write in ``folder``."""
    from bench.common import Measurement

    done = []
    start = perf_counter()
    outside = 0.0  # time spent in between()
    while True:
        began = perf_counter()
        if recorder is not None:
            recorder.op_id = len(done)
            span = recorder.start("bench.pass")
        m = module.run_pass(state, Measurement(folder))
        if recorder is not None:
            recorder.end(span)
        m.checkpoint(force=True)
        done.append(m)
        now = perf_counter()
        if between is not None:
            between(now - start - outside)
            outside += perf_counter() - now
        if passes is not None:
            if len(done) >= passes:
                break
        elif len(done) >= MIN_PASSES and now - start - outside + (now - began) > seconds:
            break
    return done, perf_counter() - start - outside


def end_to_end(module, m, setup_times: list[float]) -> tuple[dict, list[str]]:
    from bench.common import beyond, peak_rss_mb, percentile

    metrics = {"setup_s": (min(setup_times), "s")}
    lines = [f"setup_s = {metrics['setup_s'][0]:.4f} s (fastest of "
             f"{', '.join(f'{t:.3f}' for t in setup_times)})"]
    for generic, name, unit, source, q in module.REPORT:
        if q is None:
            value = m.work[source] / m.busy_s[source]
            lines.append(f"{name} = {value:.4f} {unit} ({m.work[source]:.0f} {source} in "
                         f"{m.busy_s[source]:.3f} s)  [{generic}]")
        else:
            values = m.samples[source]
            value = percentile(values, q)
            tail = beyond(len(values), q)
            note = "" if tail >= 10 else "  TOO FEW SAMPLES"
            lines.append(f"{name} = {value:.4f} {unit} (n={len(values)}, {tail} beyond)"
                         f"  [{generic}]{note}")
        metrics[generic] = (value, unit)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB")
    lines.append(f"failed_op_ratio = {m.failed / m.attempted:.4f} "
                 f"({m.failed} failed of {m.attempted} operations)")
    return {name: metrics[name] for name, _ in END_TO_END}, lines


def per_layer(agg: dict, counts: dict, passes: int, setup_agg: dict, retries: int,
              untraced_s: float, traced_s: float) -> dict:
    values = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            value = agg.get(name[:-len(".self_s")], {}).get("self_s", 0.0) / passes
        elif name.endswith(".s"):
            source = setup_agg if name == "backends.cassette_record.s" else agg
            value = source.get(name[:-len(".s")], {}).get("s", 0.0)
            value = value if source is setup_agg else value / passes
        else:
            value = counts.get(name, 0.0) / passes
        values[name] = (value, unit)
    ratio = lambda a, b: counts.get(a, 0.0) / counts[b] if counts.get(b) else 0.0
    values["workflow.commit_ratio"] = (ratio("workflow.commits", "workflow.events_run"), "ratio")
    values["creation.phase_success_ratio"] = (
        ratio("creation.phase_ok", "creation.phase_attempts"), "ratio")
    values["backends.retries"] = (retries / passes, "count")
    values["trace.untraced_s"] = (untraced_s, "s")
    values["trace.traced_s"] = (traced_s, "s")
    values["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return values


def trace_report(module, agg: dict) -> list[str]:
    lines = []
    program = {name: e for name, e in agg.items() if not name.startswith("bench.")}
    total = sum(e["self_s"] for e in program.values()) or 1.0
    ranked = sorted(program.items(), key=lambda item: -item[1]["self_s"])
    lines.append(f"top self-time spans (share of {total:.3f} s of agentos self time):")
    for name, e in ranked[:TOP_SPANS]:
        lines.append(f"  {name:36s} {e['self_s']:9.4f} s  {100 * e['self_s'] / total:5.1f}%  "
                     f"(n={e['n']})")
    layers: dict[str, float] = {}
    for name, e in program.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + e["self_s"]
    lines.append("self time by layer: " + ", ".join(
        f"{layer} {100 * s / total:.1f}%" for layer, s in sorted(layers.items(), key=lambda i: -i[1])))
    share = sum(e["self_s"] for name, e in program.items()
                if any(name == p or name.startswith(p + ".") for p in module.PREDICTED)) / total
    verdict = "matches" if share > 0.5 else "does NOT match"
    lines.append(f"prediction: {' + '.join(module.PREDICTED)} hold most of the self time on "
                 f"{module.NAME}: {100 * share:.1f}%, {verdict}")
    bench_self = agg.get("bench.pass", {}).get("self_s", 0.0)
    lines.append(f"benchmark's own time (oracles, proxies, resets): {bench_self:.3f} s")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "agentos").is_dir():
        print(f"agentos sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    table = workloads()
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    module = table[args.workload]

    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    # a terminated run still removes its temp root
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run(module, args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def _retries(state) -> int:
    sleep = getattr(state, "sleep", None)  # workloads that build engines count retries
    return sleep.retries if sleep is not None else 0


def _run(module, args, tmp: Path) -> int:
    from bench import tracing
    from bench.common import CPU_REFERENCE_S, FILE_REFERENCE_S, GROUP, Measurement, combine

    print(f"workload {module.NAME}, seed {args.seed}: closed loop, one client, "
          f"no think time")
    folder = tmp / "calibration"
    setup_times = []

    def timed_setup():
        setup = Measurement(folder)
        start = setup.start()
        made = module.setup(tmp / f"setup{len(setup_times)}", args.seed)
        setup.sample("setup_s", setup.stop(start))
        setup.checkpoint(force=True)
        setup_times.append(setup.samples["setup_s"][0])
        gc.collect()
        return made

    def more_setups(elapsed: float) -> None:
        # The machine has slow spells of seconds; set-ups spread over the run
        # are not all caught by one. Their states are the same, so only the
        # first is kept.
        if len(setup_times) < SETUPS and elapsed >= len(setup_times) * args.seconds / SETUPS:
            shutil.rmtree(timed_setup().root, ignore_errors=True)

    state = timed_setup()
    if not args.trace:
        passes, wall = run_passes(module, state, folder, args.seconds, between=more_setups)
        while len(setup_times) < SETUPS:
            more_setups(float("inf"))
        speeds = [speed for m in passes for speed in m.speeds]
        m = combine(passes)
        metrics, lines = end_to_end(module, m, setup_times)
        print(f"{len(passes)} passes in {wall:.2f} s; each latency sample is one operation's "
              f"fastest of {GROUP} passes")
        cpu, files = sorted(s.cpu for s in speeds), sorted(s.files for s in speeds)
        print(f"calibrated {len(speeds)} times: CPU kernel {1000 * cpu[0]:.2f} to "
              f"{1000 * cpu[-1]:.2f} ms, file kernel {1000 * files[0]:.2f} to "
              f"{1000 * files[-1]:.2f} ms; times are scaled to "
              f"{1000 * CPU_REFERENCE_S:.1f} and {1000 * FILE_REFERENCE_S:.1f} ms")
        for line in lines:
            print(line)
        for error in m.errors:
            print(f"FAILED: {error}")
        correct = m.failed == 0
    else:
        plain, untraced_s = run_passes(module, state, folder, args.seconds / 2)
        recorder = tracing.SpanRecorder()
        patch = tracing.instrument(recorder)
        try:
            recorder.op_id = -1
            traced_state = module.setup(tmp / "traced", args.seed)
            setup_agg = tracing.aggregate(recorder.spans)
            recorder.spans.clear()
            recorder.counts.clear()
            retries_before = _retries(traced_state)
            gc.collect()
            traced, traced_s = run_passes(module, traced_state, folder, 0, len(plain),
                                          recorder)
        finally:
            restored = patch.restore()
        agg = tracing.aggregate(recorder.spans)
        metrics = per_layer(agg, recorder.counts, len(plain), setup_agg,
                            _retries(traced_state) - retries_before, untraced_s, traced_s)
        m = combine(plain + traced)
        same = combine(plain).outputs == combine(traced).outputs
        unpatched = tracing.all_original(restored)
        print(f"{len(plain)} passes untraced in {untraced_s:.2f} s, traced in {traced_s:.2f} s "
              f"(overhead x{traced_s / untraced_s:.2f}); outputs "
              f"{'equal' if same else 'DIFFER'}; {len(restored)} bindings "
              f"{'restored' if unpatched else 'NOT restored'}")
        for line in trace_report(module, agg):
            print(line)
        for error in m.errors:
            print(f"FAILED: {error}")
        correct = m.failed == 0 and same and unpatched

    print(json.dumps({
        "correct": correct, "attempted": m.attempted, "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
