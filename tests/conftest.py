"""Shared fixtures: hypergraphs with known widths, small databases, helpers,
and the fault-injection harness for the distributed-dispatch tests (a
controllable clock for lease expiry, worker subprocesses, and a
``crashing_worker`` that SIGKILLs one mid-lease)."""

from __future__ import annotations

import asyncio
import os
import random
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.hypergraph import Hypergraph

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def triangle() -> Hypergraph:
    """The triangle query: hw = ghw = 2, fhw = 1.5."""
    return Hypergraph(
        {"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]}, name="triangle"
    )


@pytest.fixture
def path3() -> Hypergraph:
    """A 3-edge path: acyclic, hw = 1."""
    return Hypergraph(
        {"a": ["1", "2"], "b": ["2", "3"], "c": ["3", "4"]}, name="path3"
    )


@pytest.fixture
def star() -> Hypergraph:
    """A star join: acyclic, hw = 1."""
    return Hypergraph(
        {
            "fact": ["k1", "k2", "k3"],
            "d1": ["k1", "a"],
            "d2": ["k2", "b"],
            "d3": ["k3", "c"],
        },
        name="star",
    )


def cycle_hypergraph(n: int) -> Hypergraph:
    """The n-cycle of binary edges: hw = ghw = 2 for n >= 3."""
    return Hypergraph(
        {f"c{i}": [f"x{i}", f"x{(i + 1) % n}"] for i in range(n)},
        name=f"cycle{n}",
    )


def clique_hypergraph(n: int) -> Hypergraph:
    """K_n with binary edges: hw = ghw = ceil(n / 2)."""
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            edges[f"e{i}_{j}"] = [f"v{i}", f"v{j}"]
    return Hypergraph(edges, name=f"K{n}")


def grid_hypergraph(rows: int, cols: int) -> Hypergraph:
    """The rows x cols grid of binary edges: hw = 2 only for thin grids, so
    ``Check(grid(7, 7), 2)`` is a "no" whose search takes about a second."""
    edges = {}
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges[f"v{i}_{j}"] = [f"x{i}_{j}", f"x{i + 1}_{j}"]
            if j + 1 < cols:
                edges[f"h{i}_{j}"] = [f"x{i}_{j}", f"x{i}_{j + 1}"]
    return Hypergraph(edges, name=f"grid{rows}x{cols}")


@pytest.fixture
def cycle4() -> Hypergraph:
    return cycle_hypergraph(4)


@pytest.fixture
def cycle6() -> Hypergraph:
    return cycle_hypergraph(6)


@pytest.fixture
def k4() -> Hypergraph:
    return clique_hypergraph(4)


@pytest.fixture
def k5() -> Hypergraph:
    return clique_hypergraph(5)


def random_hypergraph(
    seed: int,
    max_vertices: int = 7,
    max_edges: int = 7,
    max_arity: int = 4,
) -> Hypergraph:
    """Small random hypergraph for differential tests (deterministic)."""
    rng = random.Random(seed)
    num_vertices = rng.randint(2, max_vertices)
    num_edges = rng.randint(1, max_edges)
    pool = [f"v{i}" for i in range(num_vertices)]
    edges = {}
    for j in range(num_edges):
        arity = rng.randint(1, min(max_arity, num_vertices))
        edges[f"e{j}"] = rng.sample(pool, arity)
    return Hypergraph(edges, name=f"rand{seed}").dedupe()


async def until_wave_in_flight(scheduler) -> None:
    """Yield until a batch scheduler has a wave running and nothing queued —
    the point from which new submissions queue behind that wave."""
    while True:
        snapshot = scheduler.stats_snapshot()
        if snapshot["in_flight"] and not snapshot["queued"]:
            return
        await asyncio.sleep(0)


# --------------------------------------------------- fault-injection harness


class FakeClock:
    """A controllable time source for deterministic lease-expiry tests.

    Inject as ``JobQueue(clock=fake_clock)``; :meth:`advance` is the clock
    skew — jump past a lease deadline without sleeping and the next
    ``requeue_expired()`` sweep sees the lease as expired.
    """

    def __init__(self, start: float = 1_000_000.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += float(seconds)
        return self.now


@pytest.fixture
def fake_clock() -> FakeClock:
    return FakeClock()


def spawn_worker(
    queue_path: Path,
    cache_path: Path | None = None,
    *extra_args: str,
) -> subprocess.Popen:
    """Start a real ``repro worker`` process against the given queue.

    Used both directly (the two-worker end-to-end test) and by the
    ``crashing_worker`` fixture.  The caller owns the process; SIGKILLing it
    is an intended use.
    """
    cmd = [sys.executable, "-m", "repro", "worker", "--queue", str(queue_path)]
    if cache_path is not None:
        cmd += ["--cache", str(cache_path)]
    cmd += list(extra_args)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )


def wait_for_leased(queue_path: Path, minimum: int = 1, timeout: float = 30.0) -> int:
    """Block until ≥ ``minimum`` jobs are under lease in the queue file.

    Reads the SQLite file directly (read-only is enough under WAL) so the
    observation does not perturb the queue under test.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with sqlite3.connect(queue_path, timeout=1.0) as conn:
                leased = conn.execute(
                    "SELECT COUNT(*) FROM jobs WHERE state = 'leased'"
                ).fetchone()[0]
        except sqlite3.DatabaseError:
            leased = 0
        if leased >= minimum:
            return leased
        time.sleep(0.02)
    raise TimeoutError(f"never saw {minimum} leased job(s) in {queue_path}")


def spawn_cli(*args: str) -> subprocess.Popen:
    """Start a ``python -m repro ...`` subprocess with the repo on the path.

    Like :func:`spawn_worker` but for arbitrary CLI commands (the experiment
    SIGKILL tests).  The caller owns the process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def wait_for_lines(path: Path, minimum: int = 1, timeout: float = 60.0) -> int:
    """Block until a journal file holds ≥ ``minimum`` lines (crash timing)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            lines = len(path.read_text().splitlines())
        except OSError:
            lines = 0
        if lines >= minimum:
            return lines
        time.sleep(0.02)
    raise TimeoutError(f"never saw {minimum} line(s) in {path}")


@pytest.fixture
def crashing_worker():
    """A worker launcher whose processes get SIGKILLed mid-lease.

    Yields ``crash(queue_path, cache_path, **kw)``: starts a real worker
    subprocess, waits until it holds at least one lease, then SIGKILLs it —
    no atexit hooks, no cleanup, exactly like an OOM-kill or a powered-off
    host.  Returns the killed process (already reaped).  Any stragglers are
    killed at teardown.
    """
    procs: list[subprocess.Popen] = []

    def crash(
        queue_path: Path,
        cache_path: Path | None = None,
        *extra_args: str,
        min_leased: int = 1,
    ) -> subprocess.Popen:
        proc = spawn_worker(queue_path, cache_path, *extra_args)
        procs.append(proc)
        try:
            wait_for_leased(queue_path, minimum=min_leased)
        except TimeoutError:
            proc.kill()
            proc.wait(timeout=10)
            raise
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)
        return proc

    yield crash

    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
