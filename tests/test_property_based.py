"""Property-based tests (hypothesis) on the core invariants.

These are the "decomposition returned by any algorithm always validates"
oracles plus the structural laws the theory guarantees:

* components partition the non-absorbed edges;
* ``fhw <= ghw <= hw`` on every instance where they are computed;
* yes-monotonicity of ``Check(·, k)`` in k;
* subedges of ``f(H, k)`` are proper subsets of edges;
* the relational operators obey their algebraic laws.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.components import components, is_balanced_separator, vertices_of
from repro.core.covers import fractional_cover, fractional_cover_bounds
from repro.core.hypergraph import Hypergraph
from repro.core.properties import intersection_size, multi_intersection_size
from repro.core.subedges import subedge_family
from repro.decomp.balsep import check_ghd_balsep
from repro.decomp.detkdecomp import check_hd
from repro.decomp.fractional import FRACTIONAL_TOLERANCE, _BagWeightCache, improve_hd
from repro.decomp.localbip import check_ghd_local_bip
from repro.relational.relation import Relation

# ----------------------------------------------------------------- strategies

vertex_names = st.integers(min_value=0, max_value=6).map(lambda i: f"v{i}")

edges_strategy = st.lists(
    st.frozensets(vertex_names, min_size=1, max_size=4),
    min_size=1,
    max_size=6,
    unique=True,
)


@st.composite
def hypergraphs(draw) -> Hypergraph:
    edge_sets = draw(edges_strategy)
    return Hypergraph({f"e{i}": sorted(e) for i, e in enumerate(edge_sets)})


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------- components


@given(h=hypergraphs(), sep_seed=st.frozensets(vertex_names, max_size=4))
@SETTINGS
def test_components_partition_non_absorbed_edges(h: Hypergraph, sep_seed):
    comps = components(h.edges, sep_seed)
    seen: set[str] = set()
    for comp in comps:
        assert not (seen & comp), "components must be disjoint"
        seen |= comp
    for name in set(h.edge_names) - seen:
        assert h.edge(name) <= sep_seed, "absorbed edges lie inside the separator"


@given(h=hypergraphs(), sep_seed=st.frozensets(vertex_names, max_size=4))
@SETTINGS
def test_balanced_separator_definition(h: Hypergraph, sep_seed):
    balanced = is_balanced_separator(h.edges, sep_seed)
    sizes = [len(c) for c in components(h.edges, sep_seed)]
    assert balanced == all(s <= len(h.edges) / 2 for s in sizes)


# --------------------------------------------------------------------- covers


@given(h=hypergraphs())
@SETTINGS
def test_fractional_cover_is_feasible_and_bounded(h: Hypergraph):
    cover = fractional_cover(h.edges, h.vertices)
    # Feasibility: every vertex receives total weight >= 1.
    totals = {v: 0.0 for v in h.vertices}
    for name, weight in cover.weights.items():
        for v in h.edge(name):
            totals[v] += weight
    assert all(t >= 1.0 - 1e-6 for t in totals.values())
    # Bounded by the integral optimum (picking all edges works).
    assert cover.weight <= len(h.edges) + 1e-9


@given(h=hypergraphs(), bag_seed=st.frozensets(vertex_names, max_size=6))
@SETTINGS
def test_cover_bounds_bracket_the_lp_and_decide_like_it(h: Hypergraph, bag_seed):
    bag = frozenset(bag_seed & h.vertices)
    weight = fractional_cover(h.edges, bag).weight
    lo, hi = fractional_cover_bounds(h.edges, bag)
    assert lo - 1e-9 <= weight <= hi + 1e-9
    cache = _BagWeightCache(h)
    for threshold in (1, 1.25, 1.5, 2, 2.5, 3):
        assert cache.admits(bag, threshold) == (
            weight <= threshold + FRACTIONAL_TOLERANCE
        )


# ------------------------------------------------------------------- subedges


@given(h=hypergraphs(), k=st.integers(min_value=1, max_value=3))
@SETTINGS
def test_subedges_are_proper_subsets(h: Hypergraph, k: int):
    for sub in subedge_family(h.edges, k):
        assert any(sub < e for e in h.edges.values())
        assert sub  # non-empty


# ----------------------------------------------------------------- properties


@given(h=hypergraphs())
@SETTINGS
def test_multi_intersection_monotone_in_c(h: Hypergraph):
    values = [multi_intersection_size(h, c) for c in (2, 3, 4)]
    assert values == sorted(values, reverse=True)
    assert intersection_size(h) == values[0]


# ----------------------------------------------------------------- algorithms


@given(h=hypergraphs(), k=st.integers(min_value=1, max_value=3))
@SETTINGS
def test_hd_results_always_validate(h: Hypergraph, k: int):
    hd = check_hd(h, k)
    if hd is not None:
        hd.validate("HD")
        assert hd.integral_width <= k


@given(h=hypergraphs())
@SETTINGS
def test_hd_yes_is_monotone_in_k(h: Hypergraph):
    answers = [check_hd(h, k) is not None for k in (1, 2, 3, 4)]
    # once yes, always yes
    assert answers == sorted(answers)


@given(h=hypergraphs(), k=st.integers(min_value=1, max_value=3))
@SETTINGS
def test_ghw_at_most_hw(h: Hypergraph, k: int):
    if check_hd(h, k) is not None:
        ghd = check_ghd_balsep(h, k)
        assert ghd is not None
        ghd.validate("GHD")


@given(h=hypergraphs(), k=st.integers(min_value=1, max_value=2))
@SETTINGS
def test_localbip_and_balsep_agree(h: Hypergraph, k: int):
    a = check_ghd_local_bip(h, k)
    b = check_ghd_balsep(h, k)
    assert (a is None) == (b is None)
    for d in (a, b):
        if d is not None:
            d.validate("GHD")


@given(h=hypergraphs())
@SETTINGS
def test_improve_hd_never_increases_width(h: Hypergraph):
    hd = check_hd(h, 3)
    if hd is None:
        return
    fhd = improve_hd(hd)
    fhd.validate("FHD")
    assert fhd.width <= hd.width + 1e-9


# ------------------------------------------------------------------ relations

rows_strategy = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8
)


@given(r_rows=rows_strategy, s_rows=rows_strategy)
@SETTINGS
def test_semijoin_is_join_projection(r_rows, s_rows):
    r = Relation(("a", "b"), r_rows)
    s = Relation(("b", "c"), s_rows)
    semi = r.semijoin(s)
    via_join = r.join(s).project(("a", "b"))
    assert semi.rows == via_join.rows


@given(r_rows=rows_strategy, s_rows=rows_strategy)
@SETTINGS
def test_semijoin_antijoin_partition(r_rows, s_rows):
    r = Relation(("a", "b"), r_rows)
    s = Relation(("b", "c"), s_rows)
    semi = r.semijoin(s)
    anti = r.antijoin(s)
    assert semi.rows | anti.rows == r.rows
    assert not (semi.rows & anti.rows)


@given(r_rows=rows_strategy, s_rows=rows_strategy)
@SETTINGS
def test_join_commutes(r_rows, s_rows):
    r = Relation(("a", "b"), r_rows)
    s = Relation(("b", "c"), s_rows)
    assert r.join(s) == s.join(r)
