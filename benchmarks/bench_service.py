#!/usr/bin/env python
"""Service throughput: coalesced scheduler vs naive per-request dispatch.

Simulates the service's target workload — a duplicate-heavy burst of
concurrent requests, the shape "many users ask about the same popular
instances" produces — and measures what the scheduler's three dedup layers
buy over dispatching every request individually:

* **coalesced** — the production configuration: a fresh store, duplicate
  coalescing on.  The burst costs one engine dispatch per *distinct*
  (hypergraph, k) plus scheduler overhead.
* **naive** — the pre-service baseline: no store, no coalescing.  Every
  request reaches the engine and executes.

Both modes run the same burst (``--requests`` total, ``--unique`` distinct
instances, each duplicated ``requests / unique`` times) through the same
in-process asyncio path, so the delta is pure scheduling — no HTTP noise.
Results land in the ``"service"`` section of ``BENCH_kernel.json`` (merged
in place, next to the kernel and dispatch sections)::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --requests 64 --unique 8

Exit status is non-zero if any verdict disagrees between the two modes or
if the coalesced run dispatches more than one wave of work per distinct
instance.
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
from repro.service import BatchScheduler


def _instances(unique: int) -> list[Hypergraph]:
    """Distinct copies of K7 — a ~20 ms refutation at k=3, so a burst costs
    genuine search work.  Vertex names differ per copy, so each instance has
    its own content fingerprint (renamed copies would share cache rows)."""
    graphs = []
    for i in range(unique):
        edges = {
            f"e{a}_{b}": [f"i{i}v{a}", f"i{i}v{b}"]
            for a in range(7)
            for b in range(a + 1, 7)
        }
        graphs.append(Hypergraph(edges, name=f"burst{i}"))
    return graphs


async def _run_burst(
    scheduler: BatchScheduler, graphs: list[Hypergraph], requests: int, k: int
) -> list[dict]:
    """Fire ``requests`` concurrent checks, round-robin over ``graphs``."""
    jobs = [
        scheduler.check(graphs[i % len(graphs)], k) for i in range(requests)
    ]
    return await asyncio.gather(*jobs)


def _measure(mode: str, graphs: list[Hypergraph], requests: int, k: int) -> dict:
    async def body() -> tuple[float, list[dict], dict, dict]:
        if mode == "coalesced":
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, coalesce=True)
        else:
            engine = DecompositionEngine(store=None)
            scheduler = BatchScheduler(engine, coalesce=False)
        start = time.perf_counter()
        results = await _run_burst(scheduler, graphs, requests, k)
        elapsed = time.perf_counter() - start
        service_stats = scheduler.stats.snapshot()
        engine_stats = engine.stats.snapshot()
        await scheduler.close(close_engine=True)
        return elapsed, results, service_stats, engine_stats

    elapsed, results, service_stats, engine_stats = asyncio.run(body())
    return {
        "seconds": elapsed,
        "requests_per_second": requests / elapsed if elapsed else None,
        "executed": engine_stats["executed"],
        "coalesced": service_stats["coalesced"],
        "store_answers": service_stats["store_answers"],
        "waves": service_stats["waves"],
        "verdicts": [r["verdict"] for r in results],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--requests", type=int, default=64,
                        help="total concurrent requests in the burst")
    parser.add_argument("--unique", type=int, default=8,
                        help="distinct instances the burst cycles over")
    parser.add_argument("-k", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_kernel.json"),
                        help="report file; the 'service' section is merged in place")
    args = parser.parse_args(argv)

    graphs = _instances(args.unique)
    naive = _measure("naive", graphs, args.requests, args.k)
    coalesced = _measure("coalesced", graphs, args.requests, args.k)

    failures = []
    if coalesced["verdicts"] != naive["verdicts"]:
        failures.append("verdicts disagree between coalesced and naive modes")
    if coalesced["executed"] > args.unique:
        failures.append(
            f"coalesced mode dispatched {coalesced['executed']} > "
            f"{args.unique} distinct instances"
        )
    if naive["executed"] != args.requests:
        failures.append(
            f"naive mode should execute every request "
            f"({naive['executed']} != {args.requests})"
        )

    section = {
        "requests": args.requests,
        "unique_instances": args.unique,
        "k": args.k,
        "coalesced": {key: value for key, value in coalesced.items() if key != "verdicts"},
        "naive": {key: value for key, value in naive.items() if key != "verdicts"},
        "speedup": naive["seconds"] / coalesced["seconds"],
        "dispatch_ratio": naive["executed"] / max(1, coalesced["executed"]),
    }

    report = {}
    if args.out.exists():
        report = json.loads(args.out.read_text(encoding="utf-8"))
    report["service"] = section
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")

    print(f"burst: {args.requests} requests over {args.unique} distinct instances")
    print(f"naive     : {naive['seconds']:.3f}s, {naive['executed']} dispatches")
    print(f"coalesced : {coalesced['seconds']:.3f}s, {coalesced['executed']} dispatches, "
          f"{coalesced['coalesced']} coalesced, {coalesced['store_answers']} store-answered")
    print(f"speedup   : {section['speedup']:.2f}x wall, "
          f"{section['dispatch_ratio']:.1f}x fewer dispatches -> {args.out}")
    if failures:
        print("FAILURES:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
