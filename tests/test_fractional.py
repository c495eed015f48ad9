"""Unit tests for ImproveHD / FracImproveHD (Section 6.5)."""

import pytest

from repro.core.covers import fractional_cover_bounds
from repro.core.hypergraph import Hypergraph
from repro.decomp import fractional
from repro.decomp.detkdecomp import check_hd
from repro.decomp.fractional import (
    FRACTIONAL_TOLERANCE,
    _BagWeightCache,
    best_fractional_improvement,
    check_frac_best,
    check_frac_improved,
    improve_hd,
)
from repro.engine import DecompositionEngine, ResultStore
from repro.errors import HypergraphError
from repro.obs.metrics import REGISTRY
from repro.perf import counters
from repro.perf.harness import _clique, _cycle, _random_csp
from tests.conftest import clique_hypergraph, cycle_hypergraph


class _LPOnlyCache(_BagWeightCache):
    """The bag filter without bounds: every decision solves the LP."""

    def admits(self, bag, k_prime):
        return self.weight(bag) <= k_prime + FRACTIONAL_TOLERANCE


class TestImproveHD:
    def test_triangle_improves_to_1_5(self, triangle):
        hd = check_hd(triangle, 2)
        fhd = improve_hd(hd)
        fhd.validate("FHD")
        assert fhd.width == pytest.approx(1.5, abs=1e-6)

    def test_never_worse_than_input(self, cycle6):
        hd = check_hd(cycle6, 2)
        fhd = improve_hd(hd)
        assert fhd.width <= hd.width + 1e-9

    def test_tree_and_bags_preserved(self, triangle):
        hd = check_hd(triangle, 2)
        fhd = improve_hd(hd)
        assert sorted(map(sorted, fhd.bags())) == sorted(map(sorted, hd.bags()))
        assert len(fhd) == len(hd)

    def test_acyclic_stays_1(self, path3):
        hd = check_hd(path3, 1)
        fhd = improve_hd(hd)
        assert fhd.width == pytest.approx(1.0, abs=1e-6)

    def test_k5_improves(self, k5):
        # hw(K5) = 3 but each bag of 5 vertices has ρ* = 2.5.
        hd = check_hd(k5, 3)
        fhd = improve_hd(hd)
        assert fhd.width < 3.0


class TestFracImproveHD:
    def test_triangle_check_at_1_5(self, triangle):
        fhd = check_frac_improved(triangle, 2, 1.5)
        assert fhd is not None
        fhd.validate("FHD")
        assert fhd.width <= 1.5 + 1e-6

    def test_triangle_check_below_1_5_fails(self, triangle):
        assert check_frac_improved(triangle, 2, 1.4) is None

    def test_invalid_k_prime(self, triangle):
        with pytest.raises(ValueError):
            check_frac_improved(triangle, 2, 0.0)

    def test_best_improvement_triangle(self, triangle):
        best = best_fractional_improvement(triangle, 2, precision=0.05)
        assert best is not None
        assert best.width == pytest.approx(1.5, abs=0.06)

    def test_best_improvement_never_above_k(self, k4):
        best = best_fractional_improvement(k4, 2)
        assert best is not None
        assert best.width <= 2.0 + 1e-6

    def test_best_none_when_no_hd(self, triangle):
        assert best_fractional_improvement(triangle, 1) is None

    def test_beats_or_matches_improve_hd(self):
        # FracImproveHD optimises over all HDs, so it can only be better.
        h = cycle_hypergraph(5)
        hd = check_hd(h, 2)
        naive = improve_hd(hd).width
        best = best_fractional_improvement(h, 2, precision=0.05)
        assert best.width <= naive + 1e-6

    def test_result_is_valid_fhd(self, k5):
        best = best_fractional_improvement(k5, 3, precision=0.1)
        assert best is not None
        best.validate("FHD")


class TestBoundsFirstFilter:
    def test_triangle_bounds(self, triangle):
        assert fractional_cover_bounds(triangle.edges, triangle.vertices) == (1.5, 2.0)
        assert fractional_cover_bounds(triangle.edges, ()) == (0.0, 0.0)
        with pytest.raises(HypergraphError, match="infeasible"):
            fractional_cover_bounds(triangle.edges, {"x", "nowhere"})

    @pytest.mark.parametrize(
        "hypergraph, k",
        [
            (_clique(5), 3),
            (_clique(6), 3),
            (_cycle(24), 2),
            (_random_csp(3, 14, 22, 3), 2),
        ],
        ids=["K5-k3", "K6-k3", "cycle24-k2", "csp_s3-k2"],
    )
    def test_same_fhd_as_lp_only_filter(self, monkeypatch, hypergraph, k):
        bounded = best_fractional_improvement(hypergraph, k)
        monkeypatch.setattr(fractional, "_BagWeightCache", _LPOnlyCache)
        lp_only = best_fractional_improvement(hypergraph, k)
        if lp_only is None:
            assert bounded is None
        else:
            assert bounded.to_dict() == lp_only.to_dict()
            assert bounded.width == lp_only.width

    def test_k6_solves_fewer_lps_than_lp_only_filter(self, monkeypatch):
        """``fracimprove`` on K6 at k=3 moves ``cover_lps`` (and its metric),
        but less than the same search with a filter that solves every
        bag's LP."""
        metric = REGISTRY.counter("repro_kernel_cover_lps_total")
        before = metric.value()
        engine = DecompositionEngine(store=ResultStore(), jobs=1)
        try:
            outcome = engine.check(_clique(6), 3, method="fracimprove")
        finally:
            engine.close()
        assert outcome.verdict == "yes"
        solved = outcome.counters["cover_lps"]
        assert solved > 0
        assert metric.value() - before == solved

        monkeypatch.setattr(fractional, "_BagWeightCache", _LPOnlyCache)
        counters.reset()
        assert check_frac_best(_clique(6), 3) is not None
        assert solved < counters.cover_lps
