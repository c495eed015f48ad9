"""The per-layer ledger: probes around public entry points, span analysis.

Probes are installed by the benchmark (in-process for ``experiment``, by
``launch.py`` inside the traced server); nothing under ``src/`` changes.  A
probe times one call and keeps it in memory as ``(layer, wall start,
seconds, self seconds, tag)``; self time is the call minus the probed calls
nested inside it on the same thread, so self times of all layers add up
without double counting.  Records are written out once, when the run ends.

The program's own spans (``http.request`` → ``scheduler.admit`` /
``scheduler.wait`` → ``engine.wave`` → ``worker.exec``) are kept in the
tracer's ring, made unbounded by :func:`keep_spans`, and written once as a
span journal (the format ``repro.obs.trace.load_journal`` reads) by
:func:`dump_spans`: the program's own ``--trace-journal`` writes every span
to a line-buffered file inside the request path, which the per-layer times
would then include.  :func:`request_self_ms` and :func:`exec_overlap` turn
the spans into layer self times.
"""

from __future__ import annotations

import bisect
import functools
import json
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable

from common import percentile

#: Probe records: (layer, wall start, seconds, self seconds, tag).
Record = tuple


class Ledger:
    """Collects probe records in memory (no lock: ``list.append`` is atomic)."""

    def __init__(self) -> None:
        self.records: list[Record] = []
        self._local = threading.local()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, tag: Callable | None = None) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            stack = ledger._stack()
            wall = time.time()
            started = time.perf_counter()
            stack.append(0.0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                seconds = time.perf_counter() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += seconds
                label = tag(args, kwargs, result) if tag is not None else None
                ledger.records.append((layer, wall, seconds, seconds - nested, label))

        return probe

    def patch_function(self, module, name: str, layer: str, tag: Callable | None = None) -> None:
        """Wrap ``module.name`` wherever a ``repro`` module bound it by name."""
        original = getattr(module, name)
        wrapped = self.wrap(layer, original, tag)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro"):
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapped)

    def patch_method(self, cls, name: str, layer: str, tag: Callable | None = None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(self.wrap(layer, raw.__func__, tag)))
        else:
            setattr(cls, name, self.wrap(layer, raw, tag))

    def window(self, start: float, end: float) -> list[Record]:
        """Records whose call started inside ``[start, end]`` (wall clock)."""
        return [r for r in self.records if start <= r[1] <= end]


def _batch_label(args, kwargs, result) -> str:
    specs = args[1] if len(args) > 1 else kwargs.get("specs", [])
    if not specs:
        return "empty"
    spec = specs[0]
    return spec.kind if spec.kind != "check" else f"check:{spec.method}"


def install(ledger: Ledger) -> Ledger:
    """Probe every layer's public entry points in this process."""
    # Import every module that binds a probed name before patching, so the
    # by-name rebinding in patch_function reaches all of them.
    from importlib import import_module

    import repro.analysis.experiments  # noqa: F401
    import repro.experiment.results  # noqa: F401
    import repro.experiment.runner  # noqa: F401
    import repro.service.server  # noqa: F401

    # By module path: ``repro.engine`` re-exports functions that shadow the
    # submodules of the same name.
    bitset = import_module("repro.core.bitset")
    properties = import_module("repro.core.properties")
    engine = import_module("repro.engine.engine")
    fingerprint = import_module("repro.engine.fingerprint")
    jobs = import_module("repro.engine.jobs")
    store = import_module("repro.engine.store")
    workers = import_module("repro.engine.workers")
    corpus = import_module("repro.experiment.corpus")

    ledger.patch_function(fingerprint, "fingerprint", "engine.fingerprint")
    ledger.patch_method(
        store.ResultStore, "get", "engine.store.get",
        lambda a, k, r: r is not None,
    )
    ledger.patch_method(
        store.ResultStore, "implied", "engine.store.implied",
        lambda a, k, r: r is not None,
    )
    ledger.patch_method(store.ResultStore, "put", "engine.store.put")
    ledger.patch_function(
        workers, "map_checks", "engine.workers.map_checks",
        lambda a, k, r: (len(a[0]), sum(1 for o in r if o.answered) if r else 0),
    )
    ledger.patch_function(
        workers, "race_checks", "engine.workers.race_checks",
        lambda a, k, r: (len(a[0]), 1 if r and r[0] is not None else 0),
    )
    ledger.patch_function(
        workers, "run_checked", "engine.workers.run_checked",
        lambda a, k, r: (1, 1 if r is not None and r.answered else 0),
    )
    ledger.patch_function(
        workers, "map_callables", "engine.workers.map_callables",
        lambda a, k, r: (len(a[0]), len(a[0])),
    )
    ledger.patch_method(bitset.PackedHypergraph, "pack", "core.bitset.pack")
    ledger.patch_method(bitset.PackedHypergraph, "unpack", "core.bitset.unpack")
    ledger.patch_function(bitset, "pack_decomposition", "core.bitset.pack")
    ledger.patch_function(bitset, "unpack_decomposition", "core.bitset.unpack")
    ledger.patch_method(jobs.Journal, "append", "engine.jobs.journal")
    ledger.patch_function(corpus, "build_corpus", "experiment.corpus")
    ledger.patch_function(properties, "compute_statistics", "core.properties")
    ledger.patch_method(
        engine.DecompositionEngine, "run_batch", "engine.engine.run_batch",
        _batch_label,
    )
    return ledger


def keep_spans() -> deque:
    """Make the global tracer's ring unbounded, so every span finished from
    now on stays in memory; returns the ring it replaced (for
    :func:`restore_spans`)."""
    from repro.obs.trace import TRACER

    with TRACER._lock:
        replaced, TRACER._ring = TRACER._ring, deque()
    return replaced


def restore_spans(ring: deque) -> list[dict]:
    """Put back the ring :func:`keep_spans` replaced; returns the spans kept."""
    from repro.obs.trace import TRACER

    with TRACER._lock:
        kept, TRACER._ring = list(TRACER._ring), ring
    return kept


def dump_spans(path: Path) -> None:
    """Write the tracer's spans once, as a JSONL span journal."""
    from repro.obs.trace import TRACER

    path.write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in TRACER.spans()))


# ------------------------------------------------------------- summarising


def durations(records: list[Record], layer: str) -> list[float]:
    return [r[2] for r in records if r[0] == layer]


def total(records: list[Record], layer: str) -> float:
    return sum(r[2] for r in records if r[0] == layer)


def self_total(records: list[Record]) -> float:
    return sum(r[3] for r in records)


def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def span_end(span: dict) -> float:
    return span["start"] + (span["duration"] or 0.0)


def spans_named(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name and s.get("duration") is not None]


def request_self_ms(spans: list[dict]) -> list[float]:
    """Self time of each ``http.request``: its span minus admission, queue
    wait and the engine wave that carried it.

    A wave span parents on only the first request it carries, so the wave of
    every other request is found by time: the first wave starting when that
    request's ``scheduler.wait`` ended (the dispatcher starts the wave right
    after ending the waits of the flights in it).
    """
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span.get("parent_id"):
            children.setdefault(span["parent_id"], []).append(span)
    waves = sorted(spans_named(spans, "engine.wave"), key=lambda s: s["start"])
    wave_starts = [w["start"] for w in waves]
    out = []
    for request in spans_named(spans, "http.request"):
        lo, hi = request["start"], span_end(request)
        intervals = []
        for child in children.get(request["span_id"], []):
            if child.get("duration") is None:
                continue
            intervals.append((child["start"], span_end(child)))
            if child["name"] == "scheduler.wait":
                at = bisect.bisect_left(wave_starts, span_end(child) - 0.002)
                if at < len(waves):
                    intervals.append((waves[at]["start"], span_end(waves[at])))
        out.append((request["duration"] - _union(intervals, lo, hi)) * 1000.0)
    return out


def exec_overlap(spans: list[dict], calls: list[Record]) -> tuple[float, float]:
    """For worker dispatch calls: (seconds some worker executed inside the
    calls, seconds none did).  ``worker.exec`` spans from child processes
    carry wall-clock starts, comparable with the probes' wall starts."""
    execs = [
        (s["start"], span_end(s))
        for s in spans_named(spans, "worker.exec")
        if s.get("attrs", {}).get("mode") == "worker"
    ]
    busy = idle = 0.0
    for call in calls:
        lo, hi = call[1], call[1] + call[2]
        inside = _union(execs, lo, hi)
        busy += inside
        idle += call[2] - inside
    return busy, idle


#: Probed worker dispatch entry points; each tags (processes started, useful).
DISPATCH = (
    "engine.workers.map_checks",
    "engine.workers.race_checks",
    "engine.workers.run_checked",
    "engine.workers.map_callables",
)


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a layer's samples; 0.0 when the layer did
    no work in the window."""
    return percentile(values, q) if values else 0.0


def probe_metrics(records: list[Record], spans: list[dict]) -> dict:
    """Per-layer metrics every workload derives the same way: the probed
    layers (fingerprint, store, workers, wire, journal) and the engine-side
    spans (``engine.wave``, ``worker.exec``)."""
    calls = [r for r in records if r[0] in DISPATCH]
    started = sum(r[4][0] for r in calls)
    used = sum(r[4][1] for r in calls)
    _busy, idle = exec_overlap(spans, calls)
    execs = spans_named(spans, "worker.exec")
    in_workers = [s for s in execs if s.get("attrs", {}).get("mode") == "worker"]
    gets = [r for r in records if r[0] == "engine.store.get"]
    implied = [r for r in records if r[0] == "engine.store.implied"]
    puts = durations(records, "engine.store.put")
    return {
        "engine.engine.wave_ms_p50": pct(
            [s["duration"] * 1000.0 for s in spans_named(spans, "engine.wave")], 50
        ),
        "engine.fingerprint.calls": len(durations(records, "engine.fingerprint")),
        "engine.fingerprint.ms_total": total(records, "engine.fingerprint") * 1000.0,
        "engine.store.get_calls": len(gets),
        "engine.store.get_ms_p50": pct([r[2] * 1000.0 for r in gets], 50),
        "engine.store.hit_share": sum(1 for r in gets if r[4]) / len(gets) if gets else 0.0,
        "engine.store.implied_share": (
            sum(1 for r in implied if r[4]) / len(implied) if implied else 0.0
        ),
        "engine.store.put_calls": len(puts),
        "engine.store.put_ms_p50": pct([x * 1000.0 for x in puts], 50),
        "engine.workers.processes": started,
        "engine.workers.exec_ms_total": sum(s["duration"] for s in in_workers) * 1000.0,
        "engine.workers.dispatch_overhead_ms_total": idle * 1000.0,
        "engine.workers.useful_share": used / started if started else 0.0,
        "core.bitset.pack_ms_total": total(records, "core.bitset.pack") * 1000.0,
        "core.bitset.unpack_ms_total": total(records, "core.bitset.unpack") * 1000.0,
        "decomp.check_ms_p50": pct([s["duration"] * 1000.0 for s in execs], 50),
        "engine.jobs.journal_appends": len(durations(records, "engine.jobs.journal")),
        "engine.jobs.journal_ms_total": total(records, "engine.jobs.journal") * 1000.0,
    }


def phase_metrics(records: list[Record]) -> dict:
    """The study's phases: corpus build, statistics, and its ``run_batch``
    waves grouped by what they run (hw checks, ghw races, fracimprove)."""
    batches = [r for r in records if r[0] == "engine.engine.run_batch"]

    def phase(label: str) -> float:
        return sum(r[2] for r in batches if r[4] == label)

    return {
        "experiment.runner.phase_corpus_s": total(records, "experiment.corpus"),
        "experiment.runner.phase_stats_s": total(records, "core.properties"),
        "experiment.runner.phase_hw_s": phase("check:hd"),
        "experiment.runner.phase_ghw_s": phase("portfolio"),
        "experiment.runner.phase_frac_s": phase("check:fracimprove"),
    }
