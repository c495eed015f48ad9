"""Seeded inputs for the benchmark: instances, request mixes, arrival schedules.

Everything here is a pure function of the workload seed, so the same seed
gives the same instances (hence the same store fingerprints), the same
request mix and the same open-loop arrival times on every commit.  The
generators are the benchmark's own, not the program's: a later change to
``repro``'s corpus generators must not change what the benchmark sends.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from itertools import accumulate

#: Width every ``serve-cold`` request checks (``Check(HD, 2)``).
COLD_K = 2

# The ``serve-mixed`` traffic below (pool size, Zipf exponent, mix shares)
# is an unverified assumption: the repository holds no record of real
# traffic.  It keeps novel instances a small share of the requests and is
# otherwise chosen for a steady benchmark, not to match any observed load.

#: ``serve-mixed`` pool: instances pre-filled into the store during set-up.
POOL_SIZE = 128
#: Zipf exponent of pool popularity (rank r is drawn with weight r^-s).
ZIPF_S = 1.1
#: ``/width`` sweeps stop at this k; every pool instance has hw at most 3.
WIDTH_MAX_K = 4

#: The mix, per block of 40 requests (order inside a block is shuffled by the
#: seed; stratifying keeps the share of each kind identical run to run):
#: exact stored row, bounds-implied k, cross-method implied, replayed width
#: ascent, novel instance (store write).  The novel share was lowered from 1
#: in 20 to 1 in 40 for steadiness: a novel request holds its connection for
#: the 20 ms batching window, and with only two connections a larger share
#: made the open-loop tail a count of rare moments when both were held.
MIX_BLOCK = (
    ("exact", 18),
    ("implied", 8),
    ("cross", 4),
    ("width", 9),
    ("novel", 1),
)

#: A ghw method whose "yes" at k is implied by a stored hw "yes" at k
#: (HD witnesses back GHD answers through the store's ``kind_bounds``).
CROSS_METHOD = "balsep"


def _rng(seed: int, *labels: object) -> random.Random:
    # String seeds are hashed with SHA-512 by ``random``, independent of
    # PYTHONHASHSEED, so streams are stable across processes and machines.
    return random.Random(":".join(str(part) for part in (seed, *labels)))


def random_instance(rng: random.Random) -> dict[str, list[str]]:
    """One random CQ/CSP-shaped hypergraph as ``{edge: [vertices]}``.

    11-13 variables, 9-12 atoms (constraints) of arity 2-4.  About 78 % of
    these answer "yes" to ``Check(HD, 2)`` in well under a millisecond; the
    rest answer "no" after 4-8 ms of search.  The shape is chosen for that
    bounded cost: with a heavier tail, the p99 of a 20 s run would depend on
    how many outliers the seed happened to draw.
    """
    variables = [f"v{i}" for i in range(rng.randint(11, 13))]
    edges: dict[str, list[str]] = {}
    for j in range(rng.randint(9, 12)):
        edges[f"r{j}"] = sorted(rng.sample(variables, rng.choice((2, 3, 3, 4))))
    # Keep every variable in some atom so the instance is what it says.
    used = {v for vertices in edges.values() for v in vertices}
    for j, variable in enumerate(v for v in variables if v not in used):
        edges[f"u{j}"] = sorted([variable, rng.choice(variables)])
    return edges


def instance_key(edges: dict[str, list[str]]) -> tuple:
    return tuple(sorted((name, tuple(vertices)) for name, vertices in edges.items()))


class InstanceStream:
    """Distinct seeded instances, drawn in a fixed order.

    ``label`` separates independent streams of one seed (cold requests,
    pool, novel requests, warm-up) so they never share an instance.
    """

    def __init__(self, seed: int, label: str, exclude: set | None = None):
        self._rng = _rng(seed, "instances", label)
        self._seen: set = set() if exclude is None else exclude

    def next(self) -> dict[str, list[str]]:
        while True:
            edges = random_instance(self._rng)
            key = instance_key(edges)
            if key not in self._seen:
                self._seen.add(key)
                return edges

    def take(self, count: int) -> list[dict[str, list[str]]]:
        return [self.next() for _ in range(count)]


def check_body(edges: dict, k: int, method: str = "hd") -> bytes:
    return json.dumps(
        {"hypergraph": {"edges": edges}, "k": k, "method": method},
        sort_keys=True,
    ).encode()


def width_body(edges: dict, max_k: int = WIDTH_MAX_K) -> bytes:
    return json.dumps(
        {"hypergraph": {"edges": edges}, "max_k": max_k}, sort_keys=True
    ).encode()


def mixed_ops(seed: int, label: str):
    """Endless ``(kind, pool index)`` operations for ``serve-mixed``.

    Kinds come in stratified blocks of :data:`MIX_BLOCK`; pool indices follow
    a seeded Zipf popularity over a seeded permutation of the pool (so the
    hot instances differ between seeds).  ``novel`` operations carry the
    running count of novel instances instead.  ``label`` gives each phase
    its own stream, so what one phase consumes never shifts the other.
    """
    rng = _rng(seed, "mix", label)
    order = list(range(POOL_SIZE))
    _rng(seed, "popularity").shuffle(order)
    cumulative = list(accumulate(1.0 / rank ** ZIPF_S for rank in range(1, POOL_SIZE + 1)))
    total = cumulative[-1]
    block = [kind for kind, share in MIX_BLOCK for _ in range(share)]
    novel = 0
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "novel":
                yield kind, novel
                novel += 1
            else:
                yield kind, order[bisect_left(cumulative, rng.random() * total)]


def poisson_schedule(seed: int, rate: float, seconds: float, label: str = "") -> list[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    rng = _rng(seed, "arrivals", rate, label)
    offsets: list[float] = []
    now = 0.0
    while True:
        now += -math.log(1.0 - rng.random()) / rate
        if now >= seconds:
            return offsets
        offsets.append(now)
