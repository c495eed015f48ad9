"""Kernel instrumentation for the perf harness and the telemetry layer.

The bitset kernel (:mod:`repro.core.bitset`) and the frozenset reference
implementations both report how often the hot primitives run — the
[U]-component computation, the cover/separator enumeration, the subedge
closure, the balancedness check and the covering LP — through the module-level
:data:`counters` singleton.  The microbench harness
(:mod:`repro.perf.harness`) resets the counters around each timed case and
stores the deltas next to the wall time in ``BENCH_kernel.json``, so a perf
regression can be attributed to "more work" vs "slower work".

The counters are plain attribute increments: cheap enough to leave enabled
unconditionally.  Worker processes do not share the parent's singleton —
:mod:`repro.engine.workers` snapshots the child's counters around each job
(:meth:`KernelCounters.delta_since`), ships the delta back over the result
pipe, and the parent :meth:`merges <KernelCounters.merge>` it in and
publishes it to the metrics registry (:func:`publish_delta`), so worker-side
kernel work is no longer invisible.
"""

from __future__ import annotations

__all__ = ["KernelCounters", "counters", "publish_delta"]

_FIELDS = (
    "components_calls",
    "cover_enumerations",
    "subedge_closures",
    "balance_checks",
    "cover_lps",
)


class KernelCounters:
    """Call counters for the decomposition hot-path primitives."""

    __slots__ = _FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.components_calls = 0
        self.cover_enumerations = 0
        self.subedge_closures = 0
        self.balance_checks = 0
        self.cover_lps = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in _FIELDS}

    def delta_since(self, before: dict[str, int]) -> dict[str, int]:
        """What accrued since ``before`` (an earlier :meth:`snapshot`).

        Only non-zero fields appear, so an idle job ships an empty dict.
        """
        delta: dict[str, int] = {}
        for name in _FIELDS:
            grew = getattr(self, name) - before.get(name, 0)
            if grew:
                delta[name] = grew
        return delta

    def merge(self, delta: dict[str, int] | None) -> None:
        """Fold a shipped worker delta into this (parent-side) instance."""
        if not delta:
            return
        for name in _FIELDS:
            amount = delta.get(name, 0)
            if amount:
                setattr(self, name, getattr(self, name) + amount)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelCounters({self.snapshot()})"


#: Process-global counter singleton, shared by both kernels.
counters = KernelCounters()


def publish_delta(delta: dict[str, int] | None) -> None:
    """Publish a counter delta as ``repro_kernel_*_total`` metrics.

    Called at execution boundaries (worker result receipt, in-process check
    completion) with a bulk delta — never per-increment in kernel loops, so
    the hot path stays lock-free.
    """
    if not delta:
        return
    from repro.obs.metrics import REGISTRY

    for name, amount in delta.items():
        if name in _FIELDS and amount:
            REGISTRY.counter(
                f"repro_kernel_{name}_total",
                f"Kernel {name.replace('_', ' ')} across all processes.",
            ).inc(amount)
