"""A client session against a running decomposition service.

Start a service first (any cache path works; the point is that every client
shares it)::

    PYTHONPATH=src python -m repro serve --port 8080 --cache results.db --jobs 2

then run this walkthrough against it::

    PYTHONPATH=src python examples/service_client.py --port 8080

The script demonstrates — and *asserts* — the service's three layers of
work-avoidance:

1. a cold ``/check`` executes on the engine;
2. an identical second request is answered from the shared result store
   (no dispatch — this is the warm-cache property CI gates on);
3. a burst of concurrent duplicate requests is coalesced onto in-flight
   work, so the whole burst costs at most one additional dispatch.

Exit status is non-zero if any of those properties fails, so the script
doubles as the CI service smoke test.

With ``--overload N`` the script instead becomes a burst driver for a
service running with tight admission budgets (``repro serve
--max-pending …``): it fires N *distinct* concurrent requests, tallies
the statuses, and asserts that every answer is a clean 200, 429 or 503 —
an overloaded service must refuse work, never fail it with a 500.  Used
by the CI chaos-smoke step (see docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.core.hypergraph import Hypergraph
from repro.service import ServiceClient
from repro.service.client import ServiceError


def overload_burst(host: str, port: int, burst: int) -> int:
    """Fire ``burst`` distinct concurrent checks; assert no 5xx escapes."""

    def distinct(tag: int) -> Hypergraph:
        # K8 plus a pendant edge tagged with this process and the request
        # number: every request (of every burst) has a unique fingerprint,
        # so neither coalescing nor the store can absorb the burst —
        # admission control has to do the refusing.  Check(K8, 3) is a "no"
        # that searches for about 0.15 s, so a burst keeps the engine busy
        # long enough to fill the pending budget.
        edges = {
            f"e{i}_{j}": [f"x{i}", f"x{j}"] for i in range(8) for j in range(i + 1, 8)
        }
        edges["pendant"] = ["x0", f"p{os.getpid()}_{tag}"]
        return Hypergraph(edges, name=f"burst{tag}")

    statuses: collections.Counter[int] = collections.Counter()

    def ask(tag: int) -> None:
        with ServiceClient(host=host, port=port, timeout=120.0) as client:
            try:
                result = client.check(distinct(tag), 3, tenant=f"t{tag % 4}")
            except ServiceError as exc:
                statuses[exc.status] += 1
                if exc.status in (429, 503):
                    assert exc.payload.get("verdict") == "rejected", exc.payload
            else:
                statuses[200] += 1
                assert result["verdict"] in ("yes", "no", "expired"), result

    with ThreadPoolExecutor(max_workers=burst) as pool:
        list(pool.map(ask, range(burst)))

    served = statuses[200]
    refused = statuses[429] + statuses[503]
    other = {s: n for s, n in statuses.items() if s not in (200, 429, 503)}
    print(f"overload burst of {burst}: {served} served, "
          f"{statuses[429]}x429, {statuses[503]}x503, other={other}")
    assert not other, f"overloaded service answered non-200/429/503: {other}"
    assert served + refused == burst, statuses
    assert served >= 1, "overloaded service served nothing at all"
    print("overload burst ok: every request was served or cleanly refused")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--overload", type=int, default=0, metavar="N",
        help="instead of the walkthrough, fire N distinct concurrent "
             "requests and assert the service only answers 200/429/503",
    )
    args = parser.parse_args(argv)

    if args.overload:
        return overload_burst(args.host, args.port, args.overload)

    # The paper's running example: the triangle query, hw = ghw = 2.
    triangle = Hypergraph(
        {"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]}, name="triangle"
    )
    # A 6-cycle for the burst (cyclic, hw = 2 — a slightly bigger search).
    cycle = Hypergraph(
        {f"c{i}": [f"x{i}", f"x{(i + 1) % 6}"] for i in range(6)}, name="cycle6"
    )

    with ServiceClient(host=args.host, port=args.port) as client:
        health = client.healthz()
        print(f"service up (uptime {health['uptime']}s)")

        # 1. Cold check: reaches the engine.
        cold = client.check(triangle, 2)
        print(f"check(triangle, 2) -> {cold['verdict']}  "
              f"(source={cold['source']}, {cold['seconds']}s)")
        assert cold["verdict"] == "yes", cold

        # 2. Identical request again: the store answers, nothing dispatches.
        warm = client.check(triangle, 2)
        print(f"check(triangle, 2) -> {warm['verdict']}  (source={warm['source']})")
        assert warm["source"] == "store" and warm["cached"], (
            f"second identical request was not served from the cache: {warm}"
        )

        # ... and the bounds index answers k we never asked about.
        implied = client.check(triangle, 5)
        print(f"check(triangle, 5) -> {implied['verdict']}  "
              f"(implied={implied['implied']})")
        assert implied["implied"], implied

        # 3. A concurrent duplicate burst coalesces onto one flight.
        before = client.stats()["engine"]["executed"]

        def ask(_: int) -> dict:
            with ServiceClient(host=args.host, port=args.port) as c:
                return c.check(cycle, 2)

        with ThreadPoolExecutor(max_workers=8) as pool:
            burst = list(pool.map(ask, range(8)))
        assert {r["verdict"] for r in burst} == {"yes"}, burst

        stats = client.stats()
        dispatched = stats["engine"]["executed"] - before
        print(f"burst of 8 duplicate checks -> {dispatched} dispatch(es), "
              f"{stats['service']['coalesced']} coalesced, "
              f"{stats['service']['store_answers']} store-answered so far")
        assert dispatched <= 1, stats

        # The full protocol surface, for completeness.
        width = client.width(cycle, max_k=4)
        print(f"width(cycle6) = {width.get('width')}")
        tree = client.decompose(triangle, 2)["decomposition"]
        print(f"decompose(triangle, 2): {tree['kind']} with "
              f"root bag {sorted(tree['root']['bag'])}")

    print("service walkthrough ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
