"""Integral and fractional edge covers (Section 3.2).

The fractional cover number ``ρ*(X)`` of a vertex set ``X`` is the optimum of
the covering LP

    minimise   Σ_e γ(e)
    subject to Σ_{e ∋ v} γ(e) ≥ 1   for every v ∈ X,  γ ≥ 0,

solved here with :func:`scipy.optimize.linprog` (HiGHS).  ``ImproveHD`` and
``FracImproveHD`` (Section 6.5) call this once per bag; the width of an FHD is
the maximum bag weight.  :func:`fractional_cover_bounds` brackets ``ρ*(X)``
without an LP, which is enough when only the side of a threshold matters.

Integral covers (the λ-labels of HDs/GHDs) are handled by a small greedy +
exact search used by validators and by the relational engine's cost model.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping

import numpy as np
from scipy.optimize import linprog

from repro.core.bitset import FamilyIndex
from repro.errors import HypergraphError
from repro.perf import counters

__all__ = [
    "FractionalCover",
    "fractional_cover",
    "fractional_cover_bounds",
    "fractional_cover_number",
    "covered_vertices",
    "is_integral_cover",
    "minimum_integral_cover",
]

EdgeFamily = Mapping[str, frozenset[str]]

#: Weights below this threshold are dropped from reported covers; LP solvers
#: return values like 1e-12 for variables that are structurally zero.
_WEIGHT_EPSILON = 1e-9


class FractionalCover:
    """A fractional edge cover: edge weights plus the resulting total weight."""

    __slots__ = ("weights", "weight")

    def __init__(self, weights: Mapping[str, float]):
        self.weights = {
            name: float(w) for name, w in weights.items() if w > _WEIGHT_EPSILON
        }
        self.weight = float(sum(self.weights.values()))

    def __repr__(self) -> str:
        return f"FractionalCover(weight={self.weight:.4f}, support={len(self.weights)})"


def covered_vertices(
    family: EdgeFamily, weights: Mapping[str, float], tolerance: float = 1e-7
) -> frozenset[str]:
    """The set ``B(γ)`` of vertices receiving total weight ≥ 1."""
    totals: dict[str, float] = {}
    for name, w in weights.items():
        if w <= 0:
            continue
        for v in family[name]:
            totals[v] = totals.get(v, 0.0) + w
    return frozenset(v for v, t in totals.items() if t >= 1.0 - tolerance)


def _infeasible(uncoverable: frozenset[str]) -> HypergraphError:
    return HypergraphError(
        f"vertices {sorted(uncoverable)} occur in no allowed edge; "
        "the covering LP is infeasible"
    )


def fractional_cover(
    family: EdgeFamily,
    bag: Iterable[str],
    allowed: Iterable[str] | None = None,
) -> FractionalCover:
    """Optimal fractional edge cover of ``bag`` by edges of ``family``.

    Parameters
    ----------
    family:
        Edge mapping ``{name: vertices}`` (typically ``hypergraph.edges``).
    bag:
        Vertices to cover.
    allowed:
        Restrict the cover's support to these edge names (defaults to all).

    Raises
    ------
    HypergraphError
        If some bag vertex occurs in no allowed edge (the LP is infeasible).
    """
    bag_set = frozenset(bag)
    if not bag_set:
        return FractionalCover({})

    if allowed is None:
        candidates = [name for name, e in family.items() if e & bag_set]
    else:
        candidates = [name for name in allowed if family[name] & bag_set]

    uncoverable = bag_set - frozenset().union(*(family[n] for n in candidates)) \
        if candidates else bag_set
    if uncoverable:
        raise _infeasible(uncoverable)

    vertex_index = {v: i for i, v in enumerate(sorted(bag_set))}
    n_vars = len(candidates)
    n_rows = len(vertex_index)
    # linprog minimises c @ x subject to A_ub @ x <= b_ub; covering constraints
    # Σ γ(e) >= 1 become -Σ γ(e) <= -1.
    matrix = np.zeros((n_rows, n_vars))
    for j, name in enumerate(candidates):
        for v in family[name] & bag_set:
            matrix[vertex_index[v], j] = -1.0
    result = linprog(
        c=np.ones(n_vars),
        A_ub=matrix,
        b_ub=-np.ones(n_rows),
        bounds=[(0, None)] * n_vars,
        method="highs",
    )
    counters.cover_lps += 1
    if not result.success:  # pragma: no cover - guarded by feasibility check
        raise HypergraphError(f"covering LP failed: {result.message}")
    return FractionalCover(dict(zip(candidates, result.x)))


def fractional_cover_bounds(
    family: EdgeFamily, bag: Iterable[str]
) -> tuple[float, float]:
    """Bounds ``(lo, hi)`` with ``lo ≤ ρ*(bag) ≤ hi``, found without an LP.

    ``hi`` is the size of a greedy integral cover of the bag: an integral
    cover is a feasible solution of the covering LP, so ``ρ* ≤ hi``.

    ``lo`` comes from the dual LP, the fractional vertex packing

        maximise   Σ_v y(v)
        subject to Σ_{v ∈ e ∩ bag} y(v) ≤ 1   for every edge e,  y ≥ 0,

    whose every feasible value is ``≤ ρ*`` by weak duality.  Two packings
    are feasible: ``y ≡ 1 / maxₑ |e ∩ bag|``, worth ``|bag| / maxₑ |e ∩ bag|``,
    and ``y = 1`` on a greedy set of bag vertices no two of which share an
    edge.  ``lo`` is the larger of the two.

    Raises :class:`~repro.errors.HypergraphError` if some bag vertex occurs
    in no edge (the LP is infeasible).

    >>> triangle = {"r": frozenset("xy"), "s": frozenset("yz"), "t": frozenset("zx")}
    >>> fractional_cover_bounds(triangle, "xyz")
    (1.5, 2.0)
    """
    bag_set = frozenset(bag)
    if not bag_set:
        return 0.0, 0.0
    # Distinct non-empty edge traces on the bag, in family order, so the
    # greedy choices below do not depend on string hashing.
    traces = list(dict.fromkeys(
        trace for trace in (e & bag_set for e in family.values()) if trace
    ))
    uncoverable = bag_set.difference(*traces)
    if uncoverable:
        raise _infeasible(uncoverable)

    greedy_cover = 0
    uncovered = bag_set
    while uncovered:
        uncovered = uncovered - max(traces, key=lambda t: len(t & uncovered))
        greedy_cover += 1

    neighbours = {v: frozenset() for v in bag_set}
    for trace in traces:
        for v in trace:
            neighbours[v] |= trace
    packing = 0
    blocked: frozenset[str] = frozenset()
    for v in sorted(bag_set, key=lambda v: (len(neighbours[v]), v)):
        if v not in blocked:
            packing += 1
            blocked |= neighbours[v]

    lo = max(len(bag_set) / max(map(len, traces)), float(packing))
    return lo, float(greedy_cover)


def fractional_cover_number(family: EdgeFamily, bag: Iterable[str]) -> float:
    """The fractional cover number ``ρ*(bag)`` (just the optimal weight)."""
    return fractional_cover(family, bag).weight


def is_integral_cover(
    family: EdgeFamily, cover: Iterable[str], bag: Iterable[str]
) -> bool:
    """Whether the edges named in ``cover`` jointly contain every bag vertex."""
    covered: set[str] = set()
    for name in cover:
        covered.update(family[name])
    return frozenset(bag) <= covered


def minimum_integral_cover(
    family: EdgeFamily,
    bag: Iterable[str],
    max_size: int | None = None,
) -> tuple[str, ...] | None:
    """A minimum-cardinality integral edge cover of ``bag``.

    Exact search: greedy upper bound first, then exhaustive search over
    combinations below the greedy size.  Intended for the small bags that
    occur in decompositions (``max_size`` defaults to the greedy bound).
    Returns ``None`` when no cover of size ``<= max_size`` exists.
    """
    counters.cover_enumerations += 1
    bag_set = frozenset(bag)
    if not bag_set:
        return ()
    # Mask-native search via a one-off dense index: the exhaustive phase
    # tests O(candidates^size) combinations, each now a few AND/OR ops.
    index = FamilyIndex(family)
    bit = index.vertex_bit
    bag_mask = 0
    for v in bag_set:
        b = bit.get(v)
        if b is None:
            return None  # vertex occurs in no edge at all
        bag_mask |= 1 << b
    masks = index.edge_masks
    names = index.edge_names
    candidates = [j for j in range(len(masks)) if masks[j] & bag_mask]
    union = 0
    for j in candidates:
        union |= masks[j]
    if bag_mask & ~union:
        return None

    # Greedy: repeatedly take the edge covering most uncovered vertices
    # (name tie-break, matching the historical frozenset behaviour).
    uncovered = bag_mask
    greedy: list[int] = []
    while uncovered:
        best = max(
            candidates,
            key=lambda j: ((masks[j] & uncovered).bit_count(), names[j]),
        )
        gain = masks[best] & uncovered
        if not gain:  # pragma: no cover - cannot happen given the union check
            return None
        greedy.append(best)
        uncovered &= ~gain

    bound = len(greedy) if max_size is None else min(len(greedy), max_size)

    # Exhaustive improvement below the greedy bound.
    for size in range(1, bound):
        for combo in itertools.combinations(candidates, size):
            covered = 0
            for j in combo:
                covered |= masks[j]
            if not bag_mask & ~covered:
                return tuple(names[j] for j in combo)
    if max_size is not None and len(greedy) > max_size:
        for combo in itertools.combinations(candidates, max_size):
            covered = 0
            for j in combo:
                covered |= masks[j]
            if not bag_mask & ~covered:
                return tuple(names[j] for j in combo)
        return None
    return tuple(names[j] for j in greedy)
