"""The ``serve-cold`` and ``serve-mixed`` workloads.

Both drive a ``repro serve`` subprocess over HTTP from outside.  An
untraced part starts its server exactly as a user would —
``python -m repro serve`` with default flags except ``--port 0`` and a fresh
``--cache`` — and only end-to-end numbers are taken from it.  The traced
run adds a second server started through ``launch.py`` (same flags, plus
the benchmark's probes and in-memory span keeping) for the per-layer ledger.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import ledger as ledger_mod
import loadgen
from common import (
    ROOT,
    WORK,
    BenchError,
    median,
    peak_rss_mib,
    percentile,
    tail_percentile,
)

#: Load-generator connections: at most one per core of the 2-core target box.
CONNECTIONS = 2
#: The latency phase must time at least this many requests (>= 10 beyond p99).
MIN_LATENCY_SAMPLES = 1000
#: ``serve-mixed``: share of ``--seconds`` for the closed-loop capacity
#: phase A; the open-loop phase B gets the rest, because its tail
#: percentile needs the samples more than the capacity median does.
CAPACITY_SHARE = 1 / 3
#: Distinct instances sent (and not counted) before a cold measurement.
COLD_WARMUP = 60
#: The service's report, how many times a part scrapes it after the load
#: and the pause between scrapes; ``report_s`` is the median over all parts.
REPORT_PATHS = ("/stats", "/metrics")
REPORT_SAMPLES = 60
REPORT_GAP_S = 0.03
#: A server that is not healthy this long after launch failed to start.
START_TIMEOUT_S = 60.0

_URL = re.compile(rb"http://([\d.]+):(\d+)")


@dataclass
class Server:
    """One ``repro serve`` subprocess with a fresh cache in ``workdir``."""

    workdir: Path
    traced: bool = False
    process: subprocess.Popen | None = None
    port: int = 0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    log_path: Path = field(init=False)

    def __post_init__(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.log_path = self.workdir / "server.log"

    @property
    def journal(self) -> Path:
        return self.workdir / "spans.jsonl"

    @property
    def ledger_path(self) -> Path:
        return self.workdir / "ledger.json"

    def start(self) -> float:
        """Launch and wait for ``/healthz`` 200; returns seconds taken."""
        flags = ["--port", "0", "--cache", str(self.workdir / "cache.db")]
        if self.traced:
            command = [
                sys.executable, str(ROOT / "perfbench" / "launch.py"),
                str(self.ledger_path), str(self.journal), *flags,
            ]
        else:
            command = [sys.executable, "-m", "repro", "serve", *flags]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = time.perf_counter()
        with open(self.log_path, "ab") as errors:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=errors, stdin=subprocess.DEVNULL,
            )
        self.port = self._read_port(started + START_TIMEOUT_S)
        while self.get("/healthz")[0] != 200:
            if time.perf_counter() > started + START_TIMEOUT_S:
                raise BenchError("server never became healthy")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - started
        return self.setup_s

    def _read_port(self, deadline: float) -> int:
        out = self.process.stdout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([out], [], [], remaining)[0]:
                raise BenchError("server printed no address")
            chunk = os.read(out.fileno(), 4096)
            if not chunk:
                raise BenchError(
                    f"server exited during start-up (see {self.log_path})"
                )
            line += chunk
        found = _URL.search(line)
        if found is None:
            raise BenchError(f"unexpected server banner {line!r}")
        return int(found.group(2))

    def get(self, path: str) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{self.port}{path}", timeout=10
            ) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()
        except (urllib.error.URLError, ConnectionError, OSError):
            return 0, b""

    def counters(self) -> dict:
        """``/stats`` plus the kernel counters of ``/metrics``."""
        status, body = self.get("/stats")
        if status != 200:
            raise BenchError(f"/stats answered {status}")
        stats = json.loads(body)
        status, body = self.get("/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        kernel = {}
        for line in body.decode().splitlines():
            match = re.match(r"repro_kernel_(\w+)_total(?:\{[^}]*\})? (\S+)$", line)
            if match:
                kernel[match.group(1)] = kernel.get(match.group(1), 0) + float(match.group(2))
        stats["kernel"] = kernel
        return stats

    def report_times(self, samples: int = REPORT_SAMPLES) -> list[float]:
        """Times of single scrapes of the service's own report: connect,
        ``GET /stats``, ``GET /metrics`` (what ``repro metrics`` and
        dashboards read).  Scrapes are spaced :data:`REPORT_GAP_S` apart:
        back to back, a sub-millisecond request pair times the host's
        momentary state more than the server."""
        times = []
        for _ in range(samples):
            started = time.perf_counter()
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                for path in REPORT_PATHS:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    response.read()
                    if response.status != 200:
                        raise BenchError(f"{path} answered {response.status}")
            except (OSError, http.client.HTTPException) as exc:
                raise BenchError(f"the service report failed: {exc}") from exc
            finally:
                connection.close()
            times.append(time.perf_counter() - started)
            time.sleep(REPORT_GAP_S)
        return times

    def stop(self) -> None:
        """Record peak RSS, then SIGTERM (graceful drain) and wait."""
        if self.process is None:
            return
        try:
            if self.process.poll() is None:
                try:
                    self.peak_rss_mb = peak_rss_mib(self.process.pid)
                except (OSError, BenchError):
                    pass  # exited between poll() and the read
                self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        finally:
            self.process.stdout.close()
            self.process = None


class Outcome:
    """Attempts, failures and wrong answers of one run, checked against the
    frozen reference decomposer."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def book(self, records: list[loadgen.Record], expect) -> None:
        """``expect(index, payload)`` returns an error string or ``None``."""
        for record in records:
            self.attempted += 1
            if not record.ok:
                self.failed += 1
                continue
            problem = expect(record.index, json.loads(record.body))
            if problem is not None:
                self.wrong.append(problem)

    @property
    def correct(self) -> bool:
        return not self.wrong


def latencies_ms(records: list[loadgen.Record], from_due: bool) -> list[float]:
    """Per-request latency; a failed or refused request misses every limit,
    so it counts as the client timeout."""
    out = []
    for record in records:
        if record.ok:
            start = record.due if from_due else record.sent
            out.append((record.done - start) * 1000.0)
        else:
            out.append(loadgen.REQUEST_TIMEOUT_S * 1000.0)
    return out


def loop_samples(records: list[loadgen.Record], from_due: bool) -> dict:
    """What a part reports of one loop: latencies (see :func:`latencies_ms`),
    answered and sent counts (``success_share`` = answered ÷ sent, so failed,
    refused and timed-out requests count against it) and busy seconds."""
    return {
        "latency_ms": latencies_ms(records, from_due),
        "answered": sum(1 for r in records if r.ok),
        "sent": len(records),
        "busy_s": _busy(records),
    }


def throughput(records: list[loadgen.Record]) -> float:
    """Answered requests per second of a loop."""
    return sum(1 for r in records if r.ok) / _busy(records)


def _reference():
    from repro.core.hypergraph import Hypergraph
    from repro.decomp.reference import check_hd_reference

    return Hypergraph, check_hd_reference


def reference_hw(edges: dict, max_k: int) -> int | None:
    """hw by the frozen reference DetKDecomp, ascending k (None if > max_k)."""
    Hypergraph, check = _reference()
    hypergraph = Hypergraph(edges)
    for k in range(1, max_k + 1):
        if check(hypergraph, k) is not None:
            return k
    return None


def reference_check(edges: dict, k: int) -> str:
    Hypergraph, check = _reference()
    return "yes" if check(Hypergraph(edges), k) is not None else "no"


# ------------------------------------------------------------ span ledger


def _traced_ledger(server: Server, window: tuple[float, float], before: dict, after: dict,
                   records: list[loadgen.Record], late: list[float]) -> dict:
    """Per-layer metrics of one traced server over the measured window."""
    from repro.obs.trace import load_journal

    lo, hi = window
    spans = [s for s in load_journal(server.journal) if lo <= s["start"] <= hi]
    dump = json.loads(server.ledger_path.read_text())
    probes = [tuple(r) for r in dump["records"] if lo <= r[1] <= hi]

    def delta(section: str, key: str) -> float:
        return after.get(section, {}).get(key, 0) - before.get(section, {}).get(key, 0)

    requests = ledger_mod.spans_named(spans, "http.request")
    request_ms = [s["duration"] * 1000.0 for s in requests]
    waits = [s["duration"] * 1000.0 for s in ledger_mod.spans_named(spans, "scheduler.wait")]
    client_ms = [(r.done - r.sent) * 1000.0 for r in records if r.ok]
    served = delta("service", "requests")
    waves = delta("service", "waves")
    client_total = sum(client_ms)
    metrics = ledger_mod.probe_metrics(probes, spans)
    metrics.update({
        "service.server.request_ms_p50": ledger_mod.pct(request_ms, 50),
        "service.server.request_ms_p99": ledger_mod.pct(request_ms, 99),
        "service.server.self_ms_p50": ledger_mod.pct(ledger_mod.request_self_ms(spans), 50),
        "loadgen.sent": len(records),
        "loadgen.succeeded": sum(1 for r in records if r.ok),
        "loadgen.failed": sum(1 for r in records if not r.ok),
        "loadgen.late_ms_p99": ledger_mod.pct([x * 1000.0 for x in late], 99),
        "loadgen.uncovered_ms_p50": (
            ledger_mod.pct(client_ms, 50) - ledger_mod.pct(request_ms, 50)
        ),
        "service.scheduler.wait_ms_p50": ledger_mod.pct(waits, 50),
        "service.scheduler.wait_ms_p99": ledger_mod.pct(waits, 99),
        "service.scheduler.waves": waves,
        "service.scheduler.wave_jobs_mean": delta("service", "wave_jobs") / waves if waves else 0.0,
        "service.scheduler.fastpath_share": delta("service", "store_answers") / served if served else 0.0,
        "service.scheduler.coalesced_share": delta("service", "coalesced") / served if served else 0.0,
        "service.overload.rejected": delta("service", "rejected"),
        "service.overload.shed": delta("service", "shed"),
        "engine.engine.executed": delta("engine", "executed"),
        "engine.engine.cache_hits": delta("engine", "cache_hits"),
        "engine.engine.implied": delta("engine", "implied"),
        "decomp.components_calls": delta("kernel", "components_calls"),
        "decomp.cover_enumerations": delta("kernel", "cover_enumerations"),
        "trace.uncovered_share": (
            (client_total - sum(request_ms)) / client_total if client_total else 0.0
        ),
    })
    counts = {
        "http.request": len(request_ms),
        "scheduler.wait": len(waits),
        "client": len(client_ms),
        "spans": len(spans),
        "probes": len(probes),
    }
    return {"metrics": metrics, "samples": counts}


# ------------------------------------------------------------------ phases


def _run(coroutine):
    return asyncio.run(coroutine)


async def _closed(server: Server, requests, seconds: float, min_count: int = 0):
    connections = await loadgen.open_connections("127.0.0.1", server.port, CONNECTIONS)
    try:
        return await loadgen.closed_loop(connections, requests, seconds, min_count)
    finally:
        await loadgen.close_connections(connections)


async def _open(server: Server, requests: list[bytes], offsets: list[float]):
    connections = await loadgen.open_connections("127.0.0.1", server.port, CONNECTIONS)
    try:
        return await loadgen.open_loop(connections, requests, offsets)
    finally:
        await loadgen.close_connections(connections)


class _Lazy:
    """Frames requests on demand and remembers what each index carried."""

    def __init__(self, make):
        self._make = make
        self.sent: list = []

    def __iter__(self):
        while True:
            item, data = self._make(len(self.sent))
            self.sent.append(item)
            yield data


def _fresh(workdir: Path) -> Path:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir


# ------------------------------------------------------------------ parts
#
# An untraced run is split into parts, each a process of its own with its
# own server (see run.py).  A part returns raw samples; combine_* pools the
# parts into the run's metrics.


class Servers:
    """Every server a part starts; all are stopped when the part ends."""

    def __init__(self, root: Path):
        self.root = _fresh(root)
        self.started: list[Server] = []

    def start(self, name: str, traced: bool = False) -> Server:
        server = Server(_fresh(self.root / name), traced)
        self.started.append(server)
        server.start()
        return server

    def __enter__(self) -> "Servers":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            for server in self.started:
                server.stop()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def _common(outcome: Outcome, server: Server, setup_s: float, report: list[float]) -> dict:
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong": outcome.wrong[:10],
        "setup_s": [setup_s],
        "report_s": report,
        "peak_rss_mb": server.peak_rss_mb,
    }


def _combined(parts: list[dict], metrics: dict, samples: dict) -> dict:
    wrong = [problem for part in parts for problem in part["wrong"]]
    return {
        "correct": not wrong,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "wrong": wrong[:10],
        "metrics": dict(
            metrics,
            setup_s=median([t for part in parts for t in part["setup_s"]]),
            report_s=median([t for part in parts for t in part["report_s"]]),
            peak_rss_mb=max(part["peak_rss_mb"] for part in parts),
        ),
        "samples": dict(samples, parts=len(parts)),
    }


def _p99(latency: list[float]) -> float:
    p99 = tail_percentile(latency, 99)
    if p99 is None or len(latency) < MIN_LATENCY_SAMPLES:
        raise BenchError(
            f"only {len(latency)} timed requests; p99 needs {MIN_LATENCY_SAMPLES}"
        )
    return p99


# -------------------------------------------------------------- serve-cold


def _cold_stream(seed: int, label: str, seen: set) -> _Lazy:
    stream = inputs.InstanceStream(seed, label, seen)

    def make(_index):
        edges = stream.next()
        return edges, loadgen.frame("/check", inputs.check_body(edges, inputs.COLD_K))

    return _Lazy(make)


def _cold_warm(server: Server, seed: int, label: str, seen: set) -> None:
    """Warm the server up on distinct instances (not counted)."""
    warmup = [
        loadgen.frame("/check", inputs.check_body(edges, inputs.COLD_K))
        for edges in inputs.InstanceStream(seed, f"{label}-warmup", seen).take(COLD_WARMUP)
    ]
    _run(_closed(server, warmup, 0.0, len(warmup)))


def _cold_measure(server: Server, seed: int, label: str, seen: set, seconds: float,
                  min_count: int, outcome: Outcome):
    """Time the closed loop of never-seen checks and verify every answer."""
    lazy = _cold_stream(seed, label, seen)
    records = _run(_closed(server, lazy, seconds, min_count))
    outcome.book(records, lambda i, payload: _expect_check(lazy.sent[i], inputs.COLD_K, payload))
    return records


def _expect_check(edges: dict, k: int, payload: dict, method: str = "hd") -> str | None:
    want = reference_check(edges, k)
    got = payload.get("verdict")
    if got != want:
        return f"/check {method} k={k}: got {got!r}, reference says {want!r}"
    return None


def serve_cold_part(seed: int, seconds: float, part: int, parts: int) -> dict:
    """One part: a fresh server, warm-up, then the timed closed loop."""
    seen: set = set()
    outcome = Outcome()
    label = f"cold-{part}"
    with Servers(WORK / f"serve-cold-{seed}-{part}-{os.getpid()}") as servers:
        server = servers.start("server")
        _cold_warm(server, seed, label, seen)
        records = _cold_measure(
            server, seed, label, seen, seconds, -(-MIN_LATENCY_SAMPLES // parts), outcome
        )
        report = server.report_times()
        server.stop()
    return dict(
        _common(outcome, server, server.setup_s, report),
        **loop_samples(records, from_due=False),
    )


def combine_serve_cold(parts: list[dict]) -> dict:
    latency = [ms for part in parts for ms in part["latency_ms"]]
    return _combined(parts, {
        "throughput_per_s": sum(p["answered"] for p in parts) / sum(p["busy_s"] for p in parts),
        "latency_p50_ms": percentile(latency, 50),
        "latency_p99_ms": _p99(latency),
        "success_share": sum(p["answered"] for p in parts) / sum(p["sent"] for p in parts),
    }, {"latency": len(latency)})


def serve_cold_traced(seed: int, seconds: float) -> dict:
    """Untraced then traced server, ``seconds``/2 each; the per-layer ledger."""
    seen: set = set()
    outcome = Outcome()
    with Servers(WORK / f"serve-cold-{seed}-traced-{os.getpid()}") as servers:
        plain = servers.start("untraced")
        _cold_warm(plain, seed, "cold", seen)
        base = _cold_measure(plain, seed, "cold", seen, seconds / 2, 0, outcome)
        plain.stop()
        traced = servers.start("traced", traced=True)
        _cold_warm(traced, seed, "cold-traced", seen)
        before = traced.counters()
        lo = time.time()
        records = _cold_measure(traced, seed, "cold-traced", seen, seconds / 2, 0, outcome)
        hi = time.time()
        after = traced.counters()
        traced.stop()
        layer = _traced_ledger(traced, (lo, hi), before, after, records, [])
    layer["metrics"]["trace.overhead_share"] = throughput(base) / throughput(records) - 1.0
    return _traced_result(outcome, layer)


def _traced_result(outcome: Outcome, layer: dict) -> dict:
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong": outcome.wrong[:10],
        "metrics": layer["metrics"],
        "samples": layer["samples"],
    }


def _busy(records: list[loadgen.Record]) -> float:
    """Seconds from the first send to the last answer of a loop."""
    return max(r.done for r in records) - min(r.sent for r in records)


# ------------------------------------------------------------- serve-mixed


class MixedPlan:
    """The pool, its reference widths and the framed request of each op."""

    def __init__(self, seed: int):
        self.seed = seed
        self.seen: set = set()
        stream = inputs.InstanceStream(seed, "pool", self.seen)
        self.pool: list[dict] = []
        self.hw: list[int] = []
        while len(self.pool) < inputs.POOL_SIZE:
            edges = stream.next()
            hw = reference_hw(edges, inputs.WIDTH_MAX_K - 1)
            if hw is not None:
                self.pool.append(edges)
                self.hw.append(hw)
        self.prefill = [
            loadgen.frame("/width", inputs.width_body(edges)) for edges in self.pool
        ]
        self._framed: dict[tuple[str, int], tuple[bytes, object]] = {}

    def exact_k(self, index: int) -> int:
        # Alternate the stored "yes" row (k = hw) and "no" row (k = hw - 1).
        hw = self.hw[index]
        return hw - 1 if hw > 1 and index % 2 else hw

    def op(self, kind: str, index: int) -> tuple[bytes, object]:
        """Framed request and expectation for a pool operation."""
        key = (kind, index)
        if key not in self._framed:
            edges, hw = self.pool[index], self.hw[index]
            if kind == "exact":
                k = self.exact_k(index)
                framed = (loadgen.frame("/check", inputs.check_body(edges, k)),
                          ("check", "yes" if k >= hw else "no"))
            elif kind == "implied":
                framed = (loadgen.frame("/check", inputs.check_body(edges, hw + 1)),
                          ("check", "yes"))
            elif kind == "cross":
                framed = (loadgen.frame("/check", inputs.check_body(edges, hw, inputs.CROSS_METHOD)),
                          ("check", "yes"))
            elif kind == "width":
                framed = (loadgen.frame("/width", inputs.width_body(edges)), ("width", hw))
            else:
                raise ValueError(kind)
            self._framed[key] = framed
        return self._framed[key]

    def stream(self, label: str) -> "_Lazy":
        """Lazy op stream; ``label`` separates phases and parts."""
        ops = inputs.mixed_ops(self.seed, label)
        novel = inputs.InstanceStream(self.seed, f"novel-{label}", self.seen)

        def make(_index):
            kind, index = next(ops)
            if kind == "novel":
                edges = novel.next()
                return (("novel", edges), loadgen.frame(
                    "/check", inputs.check_body(edges, inputs.COLD_K)))
            data, expect = self.op(kind, index)
            return ((kind, index, expect), data)

        return _Lazy(make)

    def check(self, item, payload: dict) -> str | None:
        if item[0] == "novel":
            return _expect_check(item[1], inputs.COLD_K, payload)
        kind, index, (shape, want) = item
        if shape == "width":
            got = payload.get("width")
            if got != want:
                return f"/width pool[{index}]: got {got!r}, reference hw {want}"
            return None
        got = payload.get("verdict")
        if got != want:
            return f"/check {kind} pool[{index}]: got {got!r}, reference says {want!r}"
        return None

    def check_prefill(self, index: int, payload: dict) -> str | None:
        if payload.get("width") != self.hw[index]:
            return f"pre-fill /width pool[{index}]: got {payload.get('width')!r}, reference hw {self.hw[index]}"
        return None


def _mixed_setup(servers: Servers, name: str, plan: MixedPlan, outcome: Outcome,
                 traced: bool = False) -> tuple[Server, float]:
    """Launch, then pre-fill the pool through ``/width``: together, set-up."""
    started = time.perf_counter()
    server = servers.start(name, traced)
    records = _run(_closed(server, plan.prefill, 0.0, len(plan.prefill)))
    outcome.book(records, plan.check_prefill)
    if any(not r.ok for r in records):
        raise BenchError("pool pre-fill failed")
    return server, time.perf_counter() - started


def _mixed_phases(server: Server, plan: MixedPlan, seconds: float, rate: float,
                  outcome: Outcome, label: str):
    """Phase A (closed loop, capacity) then phase B (open loop at ``rate``)."""
    lazy_a = plan.stream(f"A{label}")
    phase_a = _run(_closed(server, lazy_a, seconds * CAPACITY_SHARE))
    outcome.book(phase_a, lambda i, p: plan.check(lazy_a.sent[i], p))
    offsets = inputs.poisson_schedule(plan.seed, rate, seconds * (1 - CAPACITY_SHARE), label)
    lazy_b = plan.stream(f"B{label}")
    requests_b = [data for data, _ in zip(lazy_b, offsets)]
    phase_b, late = _run(_open(server, requests_b, offsets))
    outcome.book(phase_b, lambda i, p: plan.check(lazy_b.sent[i], p))
    return phase_a, phase_b, late


def serve_mixed_part(seed: int, seconds: float, part: int, rate: float) -> dict:
    plan = MixedPlan(seed)
    outcome = Outcome()
    with Servers(WORK / f"serve-mixed-{seed}-{part}-{os.getpid()}") as servers:
        server, setup_s = _mixed_setup(servers, "server", plan, outcome)
        phase_a, phase_b, late = _mixed_phases(server, plan, seconds, rate, outcome, f"-{part}")
        report = server.report_times()
        server.stop()
    capacity = loop_samples(phase_a, from_due=False)
    timed = loop_samples(phase_b, from_due=True)
    return dict(
        _common(outcome, server, setup_s, report),
        capacity_answered=capacity["answered"],
        capacity_s=capacity["busy_s"],
        latency_ms=timed["latency_ms"],
        answered=capacity["answered"] + timed["answered"],
        sent=capacity["sent"] + timed["sent"],
        late_ms=[x * 1000.0 for x in late],
    )


def combine_serve_mixed(parts: list[dict]) -> dict:
    latency = [ms for part in parts for ms in part["latency_ms"]]
    return _combined(parts, {
        "throughput_per_s": (
            sum(p["capacity_answered"] for p in parts) / sum(p["capacity_s"] for p in parts)
        ),
        "latency_p50_ms": percentile(latency, 50),
        "latency_p99_ms": _p99(latency),
        "success_share": sum(p["answered"] for p in parts) / sum(p["sent"] for p in parts),
    }, {
        "latency": len(latency),
        "late_ms_p99": percentile([x for p in parts for x in p["late_ms"]], 99),
    })


def serve_mixed_traced(seed: int, seconds: float, rate: float) -> dict:
    """Untraced then traced server, each running both phases in
    ``seconds``/2; the per-layer ledger comes from the traced one."""
    plan = MixedPlan(seed)
    outcome = Outcome()
    with Servers(WORK / f"serve-mixed-{seed}-traced-{os.getpid()}") as servers:
        plain, _ = _mixed_setup(servers, "untraced", plan, outcome)
        base_a, _, _ = _mixed_phases(plain, plan, seconds / 2, rate, outcome, "")
        plain.stop()
        traced, _ = _mixed_setup(servers, "traced", plan, outcome, traced=True)
        before = traced.counters()
        lo = time.time()
        phase_a, phase_b, late = _mixed_phases(traced, plan, seconds / 2, rate, outcome, "-traced")
        hi = time.time()
        after = traced.counters()
        traced.stop()
        layer = _traced_ledger(traced, (lo, hi), before, after, phase_a + phase_b, late)
    layer["metrics"]["trace.overhead_share"] = throughput(base_a) / throughput(phase_a) - 1.0
    return _traced_result(outcome, layer)
