#!/usr/bin/env python
"""Overload behaviour: goodput and tail latency with admission control on vs off.

Offers the scheduler a burst of **4x its pending capacity** — every request
distinct, so coalescing and the store cannot absorb any of it — and measures
what admission control buys under that overload:

* **admission on** — ``AdmissionController(max_pending = burst / 4)``: the
  scheduler keeps at most a quarter of the burst queued and refuses the
  rest instantly with ``rejected/capacity``.  Served requests see a short
  queue; refused requests get a sub-millisecond answer and a
  ``retry_after`` hint instead of a long stall.
* **admission off** — the pre-robustness baseline: everything queues,
  everything is eventually served, and the tail of the queue pays the
  full serialized wait.

Both modes run the same burst through the same in-process asyncio path (no
HTTP noise).  Results land in the ``"overload"`` section of
``BENCH_kernel.json`` (merged in place, next to the kernel / dispatch /
service sections)::

    PYTHONPATH=src python benchmarks/bench_overload.py
    PYTHONPATH=src python benchmarks/bench_overload.py --requests 64

Exit status is non-zero if either mode produces an ``error`` verdict, if
admission-on fails to refuse anything (the burst was not an overload), or
if admission-off fails to serve the whole burst.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

from repro.core.hypergraph import Hypergraph
from repro.engine import DecompositionEngine, ResultStore
from repro.service import AdmissionController, BatchScheduler, Rejected


def _instances(count: int) -> list[Hypergraph]:
    """``count`` distinct copies of K7 — a ~20 ms refutation at k=3, so the
    burst costs genuine search work and the pending queue genuinely backs
    up.  Distinct vertex names give every copy its own fingerprint."""
    graphs = []
    for i in range(count):
        edges = {
            f"e{a}_{b}": [f"i{i}v{a}", f"i{i}v{b}"]
            for a in range(7)
            for b in range(a + 1, 7)
        }
        graphs.append(Hypergraph(edges, name=f"overload{i}"))
    return graphs


def _percentile(samples: list[float], q: float) -> float | None:
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _measure(graphs: list[Hypergraph], k: int, max_pending: int | None) -> dict:
    async def body() -> tuple[float, list[tuple[str, float]], dict]:
        engine = DecompositionEngine(store=ResultStore())
        admission = (
            AdmissionController(max_pending=max_pending)
            if max_pending is not None
            else None
        )
        scheduler = BatchScheduler(engine, max_wave=4, admission=admission)

        async def one(graph: Hypergraph) -> tuple[str, float]:
            start = time.perf_counter()
            try:
                result = await scheduler.check(graph, k)
            except Rejected:
                return "rejected", time.perf_counter() - start
            return result["verdict"], time.perf_counter() - start

        start = time.perf_counter()
        outcomes = await asyncio.gather(*(one(g) for g in graphs))
        elapsed = time.perf_counter() - start
        stats = scheduler.stats.snapshot()
        await scheduler.close(close_engine=True)
        return elapsed, list(outcomes), stats

    elapsed, outcomes, stats = asyncio.run(body())
    served = [lat for verdict, lat in outcomes if verdict in ("yes", "no")]
    rejected = [lat for verdict, lat in outcomes if verdict == "rejected"]
    errors = sum(1 for verdict, _ in outcomes if verdict == "error")
    return {
        "seconds": elapsed,
        "served": len(served),
        "rejected": len(rejected),
        "errors": errors,
        "goodput_rps": len(served) / elapsed if elapsed else None,
        "served_p50_seconds": _percentile(served, 0.50),
        "served_p99_seconds": _percentile(served, 0.99),
        "rejected_p99_seconds": _percentile(rejected, 0.99),
        "waves": stats["waves"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--requests", type=int, default=48,
                        help="burst size; admission capacity is a quarter of it")
    parser.add_argument("-k", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_kernel.json"),
                        help="report file; the 'overload' section is merged in place")
    args = parser.parse_args(argv)

    capacity = max(1, args.requests // 4)
    graphs = _instances(args.requests)
    off = _measure(graphs, args.k, max_pending=None)
    on = _measure(graphs, args.k, max_pending=capacity)

    failures = []
    if on["errors"] or off["errors"]:
        failures.append(
            f"overload produced error verdicts (on={on['errors']}, "
            f"off={off['errors']}) — refusals must be clean"
        )
    if not on["rejected"]:
        failures.append("admission-on refused nothing: the burst was not an overload")
    if on["served"] + on["rejected"] != args.requests:
        failures.append(
            f"admission-on lost requests "
            f"({on['served']} served + {on['rejected']} rejected != {args.requests})"
        )
    if off["served"] != args.requests:
        failures.append(
            f"admission-off should serve the whole burst "
            f"({off['served']} != {args.requests})"
        )

    section = {
        "requests": args.requests,
        "max_pending": capacity,
        "k": args.k,
        "admission_on": on,
        "admission_off": off,
        "p99_ratio": (
            off["served_p99_seconds"] / on["served_p99_seconds"]
            if on["served_p99_seconds"] and off["served_p99_seconds"]
            else None
        ),
    }

    report = {}
    if args.out.exists():
        report = json.loads(args.out.read_text(encoding="utf-8"))
    report["overload"] = section
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")

    print(f"burst: {args.requests} distinct requests, capacity {capacity} "
          f"(4x overload), k={args.k}")
    print(f"admission off: {off['served']} served in {off['seconds']:.3f}s, "
          f"goodput {off['goodput_rps']:.1f} rps, "
          f"p99 {off['served_p99_seconds']:.3f}s")
    print(f"admission on : {on['served']} served + {on['rejected']} refused in "
          f"{on['seconds']:.3f}s, goodput {on['goodput_rps']:.1f} rps, "
          f"served p99 {on['served_p99_seconds']:.3f}s, "
          f"refusal p99 {on['rejected_p99_seconds'] * 1000:.1f}ms")
    if section["p99_ratio"]:
        print(f"tail relief  : {section['p99_ratio']:.1f}x lower served p99 "
              f"under admission control -> {args.out}")
    if failures:
        print("FAILURES:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
