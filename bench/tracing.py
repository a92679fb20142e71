"""Spans and counters for the traced benchmark run.

The traced run swaps every module binding through which a caller looks up an
instrumented function (and every instrumented method on its class) for a
timing wrapper, and restores the original objects afterwards. Nothing under
``src/`` knows about this: layers are timed from outside, at the boundary
where one module calls into another.

Each span records its name, start, end, parent span and op id. A span's self
time is its duration minus the part of its interval that child spans cover.
Worker threads of a parallel workflow round keep their own span stack; a
span opened on an empty worker stack takes the innermost open span of the
main thread (the blocked ``run_workflow``) as its parent, so overlapping
children are merged before they are subtracted.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

NO_PARENT = -1


class SpanRecorder:
    """In-memory span list plus named counters; safe under worker threads."""

    def __init__(self):
        # each span is [name, start, end, parent_index, op_id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = NO_PARENT
        span = [name, perf_counter(), 0.0, parent, self.op_id]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, in span order."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            children[parent].append((start, end))
    return [(end - start) - covered(children.get(i, []), start, end)
            for i, (name, start, end, parent, _) in enumerate(spans)]


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """name -> {"s": total duration, "self_s": total self time, "n": count}."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"s": 0.0, "self_s": 0.0, "n": 0})
        entry["s"] += span[2] - span[1]
        entry["self_s"] += own
        entry["n"] += 1
    return out


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------

PACKAGE = "agentos"


class Patcher:
    """Replaces bindings and remembers the originals so they can be put back."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []

    def _modules(self):
        return [module for name, module in sorted(sys.modules.items())
                if module is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def function(self, module, name: str, make_wrapper) -> None:
        """Wrap a module-level function under every name any module binds it to."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self.undo.append((mod, attr, original))

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make_wrapper(original))
        self.undo.append((cls, name, original))

    def restore(self) -> list[tuple[object, str, object]]:
        """Put every original back; returns what was restored."""
        restored = list(reversed(self.undo))
        for target, attr, original in restored:
            setattr(target, attr, original)
        self.undo.clear()
        return restored


def all_original(restored: list[tuple[object, str, object]]) -> bool:
    """True when every binding in ``restored`` holds its original object again."""
    return all(vars(target).get(attr) is original for target, attr, original in restored)


def timed(recorder: SpanRecorder, name: str, after=None, on_error=None):
    """Wrapper factory: a span named ``name`` around each call.

    ``after(result, args, kwargs)`` runs after the span has ended, so the
    counting it does is not charged to the layer.
    """
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.start(name)
            try:
                result = original(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(err)
                raise
            finally:
                recorder.end(index)
            if after is not None:
                # counting runs in a span of the benchmark's own, so its time
                # is taken out of the enclosing layer's self time
                index = recorder.start("bench.trace")
                try:
                    after(result, args, kwargs)
                finally:
                    recorder.end(index)
            return result
        return wrapper
    return make


def instrument(recorder: SpanRecorder) -> Patcher:
    """Wrap the public boundary of every agentos layer. Call restore() after."""
    from agentos import backends, cli, creation, engine, forms, kernel, ragstore, registry
    from agentos import workflow
    from agentos.errors import ParseError

    rec = recorder
    patch = Patcher()

    def count(name, fn=lambda result, args, kwargs: 1):
        return lambda result, args, kwargs: rec.count(name, fn(result, args, kwargs))

    # kernel
    patch.function(kernel, "run_agent_loop", timed(rec, "kernel.run_agent_loop"))
    patch.function(kernel, "orchestrate", timed(rec, "kernel.orchestrate"))
    patch.function(kernel, "apply_transfer",
                   timed(rec, "kernel.apply_transfer", after=count("kernel.handoffs")))

    # engine
    def on_parse_error(err):
        if isinstance(err, ParseError):
            rec.count("engine.parse_errors")

    patch.function(engine, "next_action",
                   timed(rec, "engine.next_action", after=count("kernel.turns"),
                         on_error=on_parse_error))
    patch.function(engine, "build_messages",
                   timed(rec, "engine.build_messages",
                         after=count("engine.build_messages.messages",
                                     lambda result, a, k: len(result))))
    patch.function(engine, "render_transformed_schema",
                   timed(rec, "engine.render_transformed_schema"))
    patch.function(engine, "scan_transformed_call", timed(rec, "engine.scan_transformed_call"))

    # backends
    def digest_bytes(result, args, kwargs):
        request = args[0]
        body = {"model": request.model, "messages": request.messages,
                "tools": ([backends._schema_dict(s) for s in request.tools]
                          if request.tools else None),
                "mode": request.mode}
        return len(json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8"))

    patch.function(backends, "request_digest",
                   timed(rec, "backends.request_digest",
                         after=count("backends.request_digest.bytes", digest_bytes)))
    patch.function(backends, "backend_complete", timed(rec, "backends.backend_complete"))
    patch.method(backends.ScriptedBackend, "complete", timed(rec, "backends.scripted"))

    def cassette_wrapper(original):
        @functools.wraps(original)
        def wrapper(self, request):
            replay = self.mode == "replay"
            index = rec.start("backends.cassette" if replay else "backends.cassette_record")
            try:
                result = original(self, request)
            except backends.CassetteMissError:
                rec.count("backends.cassette.misses")
                raise
            finally:
                rec.end(index)
            if replay:
                rec.count("backends.cassette.hits")
            return result
        return wrapper

    patch.method(backends.CassetteBackend, "complete", cassette_wrapper)

    # forms
    patch.function(forms, "parse_workflow_form", timed(rec, "forms.parse_workflow_form"))
    patch.function(forms, "validate_workflow_form",
                   timed(rec, "forms.validate_workflow_form",
                         after=count("forms.validate_workflow_form.events",
                                     lambda result, args, kwargs: len(args[0].events))))
    patch.function(forms, "workflow_form_to_xml", timed(rec, "forms.workflow_form_to_xml"))
    patch.function(forms, "parse_agent_form", timed(rec, "forms.parse_agent_form"))
    patch.function(forms, "validate_agent_form", timed(rec, "forms.validate_agent_form"))

    # workflow
    def workflow_counts(result, args, kwargs):
        width = 0
        for line in result.trace + ["round"]:
            if line.startswith("round"):
                if kwargs.get("parallel") and width > 1:
                    rec.count("workflow.parallel_threads", width)
                if width:
                    rec.count("workflow.rounds")
                width = 0
            elif line.startswith("run "):
                width += 1
                rec.count("workflow.events_run")
            elif line.startswith("commit "):
                rec.count("workflow.commits")
            elif line.startswith("reset "):
                rec.count("workflow.resets")
            elif line.startswith("discard "):
                rec.count("workflow.discards")

    patch.function(workflow, "compile_graph", timed(rec, "workflow.compile_graph"))
    patch.function(workflow, "ready_set", timed(rec, "workflow.ready_set"))
    patch.function(workflow, "execute_event", timed(rec, "workflow.execute_event"))
    patch.function(workflow, "apply_outcome", timed(rec, "workflow.apply_outcome"))
    patch.function(workflow, "run_workflow",
                   timed(rec, "workflow.run_workflow", after=workflow_counts))

    # registry
    patch.method(registry.RegistryStore, "get_tool",
                 timed(rec, "registry.get_tool", after=count("registry.get_tool.calls")))
    patch.method(registry.RegistryStore, "get_agent", timed(rec, "registry.get_agent"))
    for name in ("put_tool", "put_agent", "put_workflow"):
        patch.method(registry.RegistryStore, name, timed(rec, "registry.put"))
    patch.method(registry.RegistryStore, "view", timed(rec, "registry.view"))
    patch.method(registry.RegistryStore, "snapshot",
                 timed(rec, "registry.snapshot",
                       after=count("registry.snapshot.bytes",
                                   lambda result, a, k: sum(map(len, result.values())))))
    patch.method(registry.RegistryStore, "restore",
                 timed(rec, "registry.restore",
                       after=count("registry.restore.files",
                                   lambda result, args, kwargs: len(args[1]))))
    patch.method(registry.RegistryToolSuite, "run", timed(rec, "registry.tool_suite_run"))

    # creation
    def phase_counts(report, args, kwargs):
        rec.count("creation.phase_attempts", sum(p.attempts for p in report.phases))
        rec.count("creation.phase_ok", sum(1 for p in report.phases if p.ok))
        rec.count("creation.rollbacks",
                  sum(p.attempts - (1 if p.ok else 0) for p in report.phases))

    patch.method(creation.ManagementToolSuite, "run", timed(rec, "creation.mgmt_run"))
    for name in ("create_agents_pipeline", "create_workflow_pipeline"):
        patch.function(creation, name, timed(rec, f"creation.{name}", after=phase_counts))

    # ragstore
    def stored_bytes(store, collection):
        folder = store.root / collection
        return sum((folder / n).stat().st_size for n in ("meta.jsonl", "vectors.bin"))

    def rows(store, collection):
        size = (store.root / collection / "vectors.bin").stat().st_size
        return (size - 12) // (8 * store.embedder.dim)

    patch.method(ragstore.RagStore, "ingest", timed(rec, "ragstore.ingest"))
    patch.method(ragstore.RagStore, "ingest_text",
                 timed(rec, "ragstore.ingest_text", after=lambda result, args, kwargs: (
                     rec.count("ragstore.ingest_text.calls"),
                     rec.count("ragstore.bytes_written", stored_bytes(args[0], args[1])))))
    patch.method(ragstore.RagStore, "query",
                 timed(rec, "ragstore.query",
                       after=count("ragstore.rows_scored",
                                   lambda result, args, kwargs: rows(args[0], args[1]))))
    patch.method(ragstore.HashingEmbedder, "embed", timed(rec, "ragstore.embed"))
    patch.function(ragstore, "chunk_text", timed(rec, "ragstore.chunk_text"))

    # cli
    patch.function(cli, "dispatch_command", timed(rec, "cli.dispatch_command"))
    return patch
