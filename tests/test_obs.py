"""Tests for the ``repro.obs`` telemetry layer.

Covers the span model (nesting, error status, detached worker spans,
grafting, ring bounds, the JSONL journal), the metrics registry (counter /
gauge / histogram semantics, bucket edges, Prometheus text exposition),
trace-context propagation across ``run_batch`` worker processes with the
kernel-counter deltas they ship back, the HTTP surfaces (``/metrics``,
``/debug/traces``, the extended ``/healthz``), and the ``repro trace`` /
``repro metrics`` CLI commands.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.cli import main
from repro.core.hypergraph import Hypergraph
from repro.engine import DecompositionEngine, JobSpec, ResultStore
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import TRACER, NULL_SPAN, Tracer, load_journal, make_span
from repro.perf import counters
from repro.service import ServiceClient, ServiceThread
from repro.service.client import ServiceError
from tests.conftest import clique_hypergraph, cycle_hypergraph


def _triangle() -> Hypergraph:
    return Hypergraph(
        {"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]}, name="triangle"
    )


# ------------------------------------------------------------- span model


class TestSpans:
    def test_nested_spans_share_a_trace(self):
        tracer = Tracer(capacity=16)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        names = [r["name"] for r in tracer.spans()]
        assert names == ["inner", "outer"]  # children finish first

    def test_sibling_traces_are_distinct(self):
        tracer = Tracer(capacity=16)
        with tracer.span("first") as a:
            pass
        with tracer.span("second") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_exception_marks_error_status_and_reraises(self):
        tracer = Tracer(capacity=16)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (record,) = tracer.spans()
        assert record["status"] == "error"
        assert "ValueError" in record["attrs"]["error"]

    def test_attach_makes_remote_context_ambient(self):
        tracer = Tracer(capacity=16)
        with tracer.span("root") as root:
            remote = root.context
        with tracer.attach(remote):
            with tracer.span("adopted") as child:
                assert child.trace_id == remote.trace_id
                assert child.parent_id == remote.span_id

    def test_make_span_is_detached_and_graftable(self):
        tracer = Tracer(capacity=16)
        worker = make_span("worker.exec", parent=("t" * 16, "s" * 16), pid=1)
        worker.end(verdict="yes")
        assert tracer.spans() == []  # detached: nothing recorded yet
        tracer.graft([worker.to_dict(), {"not": "a span"}, None])
        (record,) = tracer.spans()
        assert record["trace_id"] == "t" * 16
        assert record["parent_id"] == "s" * 16
        assert record["attrs"]["verdict"] == "yes"

    def test_ring_is_bounded(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.start_span(f"s{i}").end()
        assert [r["name"] for r in tracer.spans()] == ["s6", "s7", "s8", "s9"]

    def test_end_is_idempotent(self):
        tracer = Tracer(capacity=4)
        span = tracer.start_span("once")
        first = span.end().duration
        assert span.end().duration == first
        assert len(tracer.spans()) == 1

    def test_disabled_tracer_yields_null_span(self):
        tracer = Tracer(capacity=4, enabled=False)
        with tracer.span("ignored") as span:
            assert span is NULL_SPAN
            span.set(anything="goes")
        assert tracer.spans() == []
        assert tracer.current_context() is None

    def test_traces_group_by_trace_id_most_recent_first(self):
        tracer = Tracer(capacity=16)
        with tracer.span("alpha"):
            with tracer.span("alpha.child"):
                pass
        with tracer.span("beta"):
            pass
        newest, oldest = tracer.traces()
        assert [s["name"] for s in newest["spans"]] == ["beta"]
        assert [s["name"] for s in oldest["spans"]] == ["alpha", "alpha.child"]
        assert len(tracer.traces(limit=1)) == 1

    def test_journal_roundtrip_drops_corrupt_lines(self, tmp_path):
        journal = tmp_path / "trace.jsonl"
        tracer = Tracer(capacity=4, journal=journal)
        with tracer.span("kept", k=2):
            pass
        tracer.set_journal(None)
        with journal.open("a", encoding="utf-8") as fh:
            fh.write('{"truncated": \n')  # a crash mid-write
        records = load_journal(journal)
        assert [r["name"] for r in records] == ["kept"]
        assert records[0]["attrs"] == {"k": 2}
        assert load_journal(tmp_path / "missing.jsonl") == []


# ---------------------------------------------------------------- metrics


class TestMetrics:
    def test_counter_requires_total_suffix(self):
        with pytest.raises(ValueError, match="_total"):
            Counter("repro_bad_name")

    def test_counter_rejects_negative_increments(self):
        counter = Counter("repro_t_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_counter_labels_key_independently(self):
        counter = Counter("repro_req_total")
        counter.inc(kind="check")
        counter.inc(2, kind="width")
        counter.inc(kind="check")
        assert counter.value(kind="check") == 2
        assert counter.value(kind="width") == 2
        assert counter.value(kind="portfolio") == 0

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("repro_depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6

    def test_histogram_bucket_edges_are_le_inclusive(self):
        histogram = Histogram("repro_lat_seconds", buckets=(0.1, 0.2, 0.4))
        histogram.observe(0.1)    # exactly on an edge: counts into it
        histogram.observe(0.15)
        histogram.observe(0.4)
        histogram.observe(99.0)   # overflow: only the +Inf bucket
        assert histogram.bucket_counts() == {0.1: 1, 0.2: 2, 0.4: 3, math.inf: 4}
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(99.65)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("repro_bad_seconds", buckets=())
        with pytest.raises(ValueError):
            Histogram("repro_bad_seconds", buckets=(0.0, 1.0))

    def test_default_buckets_are_log_spaced_from_1ms(self):
        assert DEFAULT_BUCKETS[0] == 0.001
        ratios = {
            round(b / a, 6)
            for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        }
        assert ratios == {2.0}

    def test_registry_get_or_create_is_idempotent_and_type_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_once_total", "help text")
        assert registry.counter("repro_once_total") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_once_total")

    def test_disabled_registry_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("repro_off_total")
        histogram = registry.histogram("repro_off_seconds", buckets=(1.0,))
        counter.inc(5)
        histogram.observe(0.5)
        assert counter.value() == 0
        assert histogram.count == 0

    def test_render_is_prometheus_text_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_req_total", "requests").inc(3, kind="check")
        registry.gauge("repro_depth", "queue depth").set(2)
        registry.histogram("repro_lat_seconds", buckets=(0.5,)).observe(0.25)
        text = registry.render()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# HELP repro_req_total requests" in lines
        assert "# TYPE repro_req_total counter" in lines
        assert 'repro_req_total{kind="check"} 3' in lines
        assert "# TYPE repro_depth gauge" in lines
        assert "repro_depth 2" in lines
        assert "# TYPE repro_lat_seconds histogram" in lines
        assert 'repro_lat_seconds_bucket{le="0.5"} 1' in lines
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_lat_seconds_sum 0.25" in lines
        assert "repro_lat_seconds_count 1" in lines

    def test_untouched_counter_renders_a_zero_sample(self):
        registry = MetricsRegistry()
        registry.counter("repro_idle_total")
        assert "repro_idle_total 0" in registry.render().splitlines()

    def test_render_extra_metrics_do_not_join_the_registry(self):
        registry = MetricsRegistry()
        live = Gauge("repro_live_entries")
        live.set(7)
        text = registry.render(extra=[live])
        assert "repro_live_entries 7" in text.splitlines()
        assert registry.metrics() == []

    def test_label_values_are_escaped(self):
        counter = Counter("repro_esc_total")
        counter.inc(path='a"b\\c')
        (sample,) = counter.samples()
        rendered = counter.render()
        assert r'path="a\"b\\c"' in rendered

    def test_snapshot_matches_samples(self):
        registry = MetricsRegistry()
        registry.counter("repro_snap_total").inc(4, kind="check")
        snap = registry.snapshot()["repro_snap_total"]
        assert snap["type"] == "counter"
        assert snap["samples"] == [
            {"labels": {"kind": "check"}, "value": 4.0}
        ]


# --------------------------------------------- cross-process propagation


class TestWorkerPropagation:
    def test_trace_context_crosses_run_batch_workers(self):
        """A span context set on the JobSpec parents the worker-side
        ``worker.exec`` record grafted back into this process's tracer."""
        TRACER.clear()
        engine = DecompositionEngine(store=ResultStore(), jobs=2)
        try:
            with TRACER.span("test.root") as root:
                spec = JobSpec.check(
                    clique_hypergraph(6), 2, method="hd", timeout=30.0,
                    trace=root.context,
                )
                report = engine.run_batch([spec])
        finally:
            engine.close()
        (result,) = report.results
        assert result.verdict == "no"  # hw(K6) = 3

        records = [r for r in TRACER.spans() if r["trace_id"] == root.trace_id]
        by_name = {r["name"]: r for r in records}
        assert {"engine.wave", "worker.exec", "test.root"} <= set(by_name)
        worker = by_name["worker.exec"]
        assert worker["attrs"]["mode"] == "worker"
        assert worker["attrs"]["pid"] != by_name["test.root"].get("pid")
        # the worker record parents into this trace, not a fresh one
        assert worker["parent_id"] in {r["span_id"] for r in records}

    def test_worker_kernel_counters_ship_back_and_merge(self):
        counters.reset()
        engine = DecompositionEngine(store=ResultStore(), jobs=2)
        try:
            spec = JobSpec.check(clique_hypergraph(6), 2, method="hd", timeout=30.0)
            report = engine.run_batch([spec])
        finally:
            engine.close()
        (result,) = report.results
        assert result.counters, "worker kernel-counter delta was lost"
        assert result.counters.get("components_calls", 0) > 0
        # satellite fix: the delta merged into the parent-process singleton
        merged = counters.snapshot()
        for name, value in result.counters.items():
            assert merged[name] >= value

    def test_inproc_execution_records_spans_and_counters(self):
        TRACER.clear()
        engine = DecompositionEngine(store=ResultStore(), jobs=1)
        try:
            with TRACER.span("test.inproc") as root:
                outcome = engine.check(
                    clique_hypergraph(6), 2, method="hd", timeout=30.0,
                    trace=root.context,
                )
        finally:
            engine.close()
        assert outcome.verdict == "no"
        assert outcome.counters and outcome.counters["components_calls"] > 0
        records = [r for r in TRACER.spans() if r["trace_id"] == root.trace_id]
        by_name = {r["name"]: r for r in records}
        assert {"engine.check", "worker.exec"} <= set(by_name)
        assert by_name["worker.exec"]["attrs"]["mode"] == "inproc"
        assert by_name["worker.exec"]["attrs"]["kernel_components_calls"] > 0

    def test_balsep_balance_tests_move_the_counter(self):
        """BalSep's balance tests are counted: a balsep check on a small
        cyclic hypergraph moves ``repro_kernel_balance_checks_total``."""
        metric = REGISTRY.counter("repro_kernel_balance_checks_total")
        before = metric.value()
        engine = DecompositionEngine(store=ResultStore(), jobs=1)
        try:
            outcome = engine.check(cycle_hypergraph(6), 2, method="balsep")
        finally:
            engine.close()
        assert outcome.verdict == "yes"
        assert outcome.counters["balance_checks"] > 0
        assert metric.value() - before == outcome.counters["balance_checks"]


# ----------------------------------------------------------- HTTP surfaces


@pytest.fixture(scope="class")
def service():
    engine = DecompositionEngine(store=ResultStore(), jobs=1)
    with ServiceThread(engine) as thread:
        with ServiceClient(port=thread.port) as client:
            yield client


class TestServiceSurfaces:
    def test_metrics_exposition_after_a_request(self, service):
        TRACER.clear()
        assert service.check(_triangle(), 2)["verdict"] == "yes"
        text = service.metrics()
        assert text.endswith("\n")
        for family in (
            "repro_engine_requests_total",
            "repro_service_requests_total",
            "repro_store_entries",
            "repro_service_in_flight",
            "repro_service_uptime_seconds",
            "repro_http_requests_total",
            "repro_http_request_seconds_bucket",
        ):
            assert family in text, f"missing {family}"
        assert '# TYPE repro_http_request_seconds histogram' in text
        assert 'repro_service_requests_total{kind="check"}' in text

    def test_debug_traces_returns_the_request_span_tree(self, service):
        TRACER.clear()
        # a fresh instance: a store answer would skip the wave entirely
        service.check(clique_hypergraph(5), 2)["verdict"]
        payload = service.traces(limit=5)
        spans = {
            s["name"] for t in payload["traces"] for s in t["spans"]
        }
        assert "http.request" in spans
        assert "scheduler.wait" in spans or "engine.wave" in spans

    def test_debug_traces_bad_limit_is_a_400(self, service):
        with pytest.raises(ServiceError) as err:
            service._request("GET", "/debug/traces?limit=nope")
        assert err.value.status == 400

    def test_healthz_carries_uptime_version_pid_cache(self, service):
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        from repro import __version__

        assert health["version"] == __version__
        assert isinstance(health["pid"], int)
        assert "cache" in health
        assert health["in_flight"] >= 0


# -------------------------------------------------------------------- CLI


class TestCli:
    def _journal(self, tmp_path):
        journal = tmp_path / "trace.jsonl"
        tracer = Tracer(capacity=16, journal=journal)
        with tracer.span("http.request", path="/check"):
            with tracer.span("engine.wave", jobs=1):
                pass
        tracer.set_journal(None)
        return journal

    def test_trace_show_from_journal(self, tmp_path, capsys):
        journal = self._journal(tmp_path)
        assert main(["trace", "show", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "http.request" in out
        assert "engine.wave" in out
        assert "trace " in out

    def test_trace_summary_aggregates_by_span_name(self, tmp_path, capsys):
        journal = self._journal(tmp_path)
        assert main(["trace", "summary", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "span" in out and "count" in out
        assert "http.request" in out

    def test_trace_without_a_source_fails(self, capsys):
        assert main(["trace", "show"]) == 2
        assert "pass --journal" in capsys.readouterr().err

    def test_trace_show_empty_journal(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["trace", "show", "--journal", str(empty)]) == 0
        assert "no spans recorded" in capsys.readouterr().out
