"""Pieces shared by the workloads: measurements, calibration, percentiles, backends."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from agentos import backends


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the q-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


# Kernel times that define the reference machine speed.
CPU_REFERENCE_S = 0.002
FILE_REFERENCE_S = 0.004
CALIBRATE_EVERY_S = 0.15
CALIBRATION_REPEATS = 2


def _cpu_kernel() -> int:
    """A fixed slice of the work the runtime does: JSON, hashing, strings, dicts."""
    rows = [{"role": "user", "content": f"message {i} " * 8} for i in range(300)]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    hashlib.sha256(blob.encode("utf-8")).hexdigest()
    counts: dict[str, int] = {}
    for token in " ".join(r["content"] for r in json.loads(blob)).split():
        counts[token] = counts.get(token, 0) + 1
    return len(counts)


def _file_kernel(folder: Path) -> None:
    """Sixteen atomic rewrites of small files, the way the registry and RAG store write."""
    for i in range(16):
        fd, tmp = tempfile.mkstemp(dir=folder, prefix=".tmp-")
        with os.fdopen(fd, "wb") as handle:
            handle.write(b"x" * 400)
        os.replace(tmp, folder / f"file_{i}")


@dataclass
class Speed:
    cpu: float  # seconds the CPU kernel took
    files: float  # seconds the file kernel took


def calibrate(folder: Path) -> Speed:
    """Fastest of CALIBRATION_REPEATS runs of each calibration kernel."""
    folder.mkdir(parents=True, exist_ok=True)
    best = Speed(float("inf"), float("inf"))
    for _ in range(CALIBRATION_REPEATS):
        start = perf_counter()
        _cpu_kernel()
        middle = perf_counter()
        _file_kernel(folder)
        best = Speed(min(best.cpu, middle - start), min(best.files, perf_counter() - middle))
    return best


def usage() -> tuple[float, float]:
    """(user CPU, wall) seconds so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime, perf_counter()


def reference_seconds(used: tuple[float, float], speeds: list[Speed]) -> float:
    """Reference seconds of ``used`` (user CPU and wall seconds of timed work).

    User time is scaled by the CPU kernel, and the rest of the wall time by
    the file kernel, each kernel time averaged over ``speeds``. The rest is
    system time and waiting; the runtime never sleeps here, so its waiting
    is the file system's writeback, which the file kernel pays as well.
    """
    user, wall = used
    cpu = sum(s.cpu for s in speeds) / len(speeds)
    files = sum(s.files for s in speeds) / len(speeds)
    return user * CPU_REFERENCE_S / cpu + max(0.0, wall - user) * FILE_REFERENCE_S / files


@dataclass
class Measurement:
    """What one pass of a workload hands back to ``run.py``, in reference time.

    Workloads time each operation with ``start()`` and ``stop()``. Every
    time they record is scaled to the reference machine speed: at operation
    boundaries, at most every CALIBRATE_EVERY_S, the calibration kernels run
    again (writing in ``folder``), and the times recorded since the last
    calibration are multiplied by ``reference_seconds`` over wall time of
    the operations timed in that stretch. Work between ``stop()`` and the
    next ``start()``, such as the oracles, is left out of the factor. Load
    from elsewhere on a shared machine slows the kernels and the runtime
    alike, so the ratio holds while raw times swing by a third or more
    within minutes.
    """

    folder: Path
    samples: dict[str, list[float]] = field(default_factory=dict)  # name -> ms
    work: dict[str, float] = field(default_factory=dict)  # counted units
    busy_s: dict[str, float] = field(default_factory=dict)  # time spent on them
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)  # one signature per op
    speeds: list[Speed] = field(default_factory=list)
    _pending: list[tuple[str, str, float]] = field(default_factory=list)
    _used: list[float] = field(default_factory=lambda: [0.0, 0.0])
    _calibrated_at: float = 0.0

    def _calibrate(self) -> None:
        self.speeds.append(calibrate(self.folder))
        self._calibrated_at = perf_counter()

    def start(self) -> tuple[float, float]:
        if not self.speeds:
            self._calibrate()
        return usage()

    def stop(self, start: tuple[float, float]) -> float:
        """Wall seconds since ``start``; the interval joins the timed work."""
        end = usage()
        self._used = [used + b - a for used, a, b in zip(self._used, start, end)]
        return end[1] - start[1]

    def sample(self, name: str, ms: float) -> None:
        self._pending.append(("sample", name, ms))

    def add_work(self, name: str, units: float, seconds: float) -> None:
        self.work[name] = self.work.get(name, 0.0) + units
        self._pending.append(("busy", name, seconds))

    def verdict(self, problems: list[str], signature: str) -> None:
        """Record one checked operation: ``problems`` empty means correct."""
        self.attempted += 1
        self.outputs.append(signature)
        if problems:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("; ".join(problems))
        self.checkpoint()

    def checkpoint(self, force: bool = False) -> None:
        """Recalibrate if due and settle the pending times; call only
        between timed operations, and with ``force`` when the pass ends."""
        if not self._pending:
            return
        if not force and perf_counter() - self._calibrated_at < CALIBRATE_EVERY_S:
            return
        self._calibrate()
        factor = reference_seconds(tuple(self._used), self.speeds[-2:]) / self._used[1]
        for kind, name, value in self._pending:
            if kind == "sample":
                self.samples.setdefault(name, []).append(value * factor)
            else:
                self.busy_s[name] = self.busy_s.get(name, 0.0) + value * factor
        self._pending.clear()
        self._used = [0.0, 0.0]


GROUP = 3  # consecutive passes whose fastest run is one latency sample


def combine(passes: list[Measurement]) -> Measurement:
    """One measurement from identical passes, with machine noise filtered out.

    Every pass runs the same operations in the same order, so the i-th
    sample of a pass belongs to the same operation each time. Each latency
    sample reported is one operation's fastest run within a group of GROUP
    consecutive passes (a short last group joins the one before it), and
    each rate uses the fastest pass. Load from elsewhere on the machine only
    ever adds time, and it comes in bursts of seconds, so it has to slow an
    operation in every pass of a group to move a percentile.
    """
    out = Measurement(passes[0].folder)
    for m in passes:
        out.attempted += m.attempted
        out.failed += m.failed
        out.errors.extend(m.errors[:max(0, 5 - len(out.errors))])
        out.outputs.extend(m.outputs)
    groups = [passes[i:i + GROUP] for i in range(0, len(passes), GROUP)]
    if len(groups) > 1 and len(groups[-1]) < GROUP:
        groups[-2].extend(groups.pop())
    for name in passes[0].samples:
        for group in groups:
            columns = [m.samples[name] for m in group]
            if len({len(c) for c in columns}) != 1:
                raise ValueError(f"passes disagree on the number of {name} samples")
            out.samples.setdefault(name, []).extend(min(values) for values in zip(*columns))
    for name, units in passes[0].work.items():
        out.work[name] = units
        out.busy_s[name] = min(m.busy_s[name] for m in passes)
    return out


class TurnClock:
    """Thin backend proxy that stamps the time of every backend call.

    A turn is the interval between a session's successive backend calls;
    the last turn ends when the session returns.
    """

    def __init__(self, inner):
        self.inner = inner
        self.stamps: list[float] = []

    def complete(self, request):
        self.stamps.append(perf_counter())
        return self.inner.complete(request)

    def turns_ms(self, end: float) -> list[float]:
        marks = self.stamps + [end]
        return [(b - a) * 1000.0 for a, b in zip(marks, marks[1:])]


class RouterBackend:
    """Replies keyed by model name, computed from how often that model was asked.

    ``routes`` maps a model to ``reply(call_number) -> text``. Parallel rounds
    stay deterministic because every event uses its own model, so no two
    threads share a counter.
    """

    def __init__(self, routes: dict):
        self.routes = routes
        self.calls: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            number = self.calls.get(request.model, 0)
            self.calls[request.model] = number + 1
        return backends.CompletionResponse(text=self.routes[request.model](number))


class CountingSleep:
    """RetryPolicy.sleep that counts the retries it is asked to wait for."""

    def __init__(self):
        self.retries = 0

    def __call__(self, seconds: float) -> None:
        self.retries += 1


def retry_policy(counter: CountingSleep):
    return backends.RetryPolicy(sleep=counter)
