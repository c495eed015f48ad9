"""Self-tests of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

The file is deliberately not named ``test_*.py``, so the repository's own
test suite does not collect it.  ``test_expected_table`` re-derives the
experiment's expected answers with the frozen reference decomposers.
"""

from __future__ import annotations

import sys
import traceback

import batch
import inputs
import loadgen
import serving
from common import MIN_TAIL_SAMPLES, ROOT, beyond, percentile, tail_percentile

sys.path.insert(0, str(ROOT / "src"))


def _fingerprints(seed: int, label: str, count: int = 12) -> list[str]:
    from repro.core.hypergraph import Hypergraph
    from repro.engine.fingerprint import fingerprint

    return [
        fingerprint(Hypergraph(edges))
        for edges in inputs.InstanceStream(seed, label).take(count)
    ]


def test_same_seed_same_inputs():
    assert _fingerprints(7, "cold") == _fingerprints(7, "cold")
    assert inputs.poisson_schedule(7, 400.0, 2.0) == inputs.poisson_schedule(7, 400.0, 2.0)
    first = [op for op, _ in zip(inputs.mixed_ops(7, "A"), range(200))]
    again = [op for op, _ in zip(inputs.mixed_ops(7, "A"), range(200))]
    assert first == again
    assert serving.MixedPlan(7).hw == serving.MixedPlan(7).hw


def test_other_seed_other_inputs():
    assert set(_fingerprints(7, "cold")).isdisjoint(_fingerprints(8, "cold"))
    assert inputs.poisson_schedule(7, 400.0, 2.0) != inputs.poisson_schedule(8, 400.0, 2.0)
    ops7 = [op for op, _ in zip(inputs.mixed_ops(7, "A"), range(200))]
    ops8 = [op for op, _ in zip(inputs.mixed_ops(8, "A"), range(200))]
    assert ops7 != ops8


def test_streams_never_share_an_instance():
    seen: set = set()
    cold = inputs.InstanceStream(3, "cold", seen).take(300)
    novel = inputs.InstanceStream(3, "novel", seen).take(300)
    keys = [inputs.instance_key(e) for e in cold + novel]
    assert len(set(keys)) == len(keys)


def test_mix_is_stratified():
    block = sum(share for _, share in inputs.MIX_BLOCK)
    ops = [kind for (kind, _), _ in zip(inputs.mixed_ops(5, "A"), range(block * 50))]
    for kind, share in inputs.MIX_BLOCK:
        assert ops.count(kind) == share * 50


def test_schedule_rate():
    offsets = inputs.poisson_schedule(1, 400.0, 10.0)
    assert 3600 < len(offsets) < 4400
    assert offsets == sorted(offsets) and offsets[-1] < 10.0


def test_p99_needs_ten_samples_beyond():
    assert beyond(1000, 99) == MIN_TAIL_SAMPLES
    assert tail_percentile(list(range(1000)), 99) == percentile(list(range(1000)), 99)
    assert tail_percentile(list(range(999)), 99) is None
    assert tail_percentile(list(range(100)), 99) is None
    assert tail_percentile(list(range(200)), 50) == 99


def test_refused_and_failed_count_as_misses():
    def record(index, status):
        return loadgen.Record(index, 0.0, 0.0, 0.001, status, b"{}")

    records = [record(0, 200), record(1, 429), record(2, 503), record(3, 0), record(4, 500)]
    samples = serving.loop_samples(records, from_due=False)
    assert (samples["answered"], samples["sent"]) == (1, 5)
    latency = samples["latency_ms"]
    assert latency[0] < 2.0
    assert latency[1:] == [loadgen.REQUEST_TIMEOUT_S * 1000.0] * 4
    outcome = serving.Outcome()
    outcome.book(records, lambda index, payload: None)
    assert (outcome.attempted, outcome.failed, outcome.correct) == (5, 4, True)


def test_open_loop_latency_counts_from_due_time():
    late = loadgen.Record(0, due=1.0, sent=1.5, done=1.6, status=200, body=b"")
    assert abs(serving.latencies_ms([late], from_due=True)[0] - 600.0) < 1e-6
    assert abs(serving.latencies_ms([late], from_due=False)[0] - 100.0) < 1e-6


def test_expected_table():
    """The experiment's expected answers agree with the reference kernels."""
    from repro.decomp.reference import check_ghd_balsep_reference, check_hd_reference
    from repro.experiment.corpus import build_corpus

    assert batch.corpus_digest(1) == batch.corpus_digest(2) == batch.CORPUS_DIGEST
    corpus = {e.name: e.hypergraph for e in build_corpus(batch.manifest(1))}
    assert corpus.keys() == batch.EXPECTED.keys()
    for name, (hw, race) in batch.EXPECTED.items():
        hypergraph = corpus[name]
        ascent = [check_hd_reference(hypergraph, k) is not None for k in range(1, hw + 1)]
        assert ascent == [False] * (hw - 1) + [True], name
        if race is not None:
            got = check_ghd_balsep_reference(hypergraph, hw - 1) is not None
            assert ("yes" if got else "no") == race, name


def main() -> int:
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
                print(f"ok    {name}")
            except Exception:  # noqa: BLE001 - report every failing test
                failures += 1
                print(f"FAIL  {name}")
                traceback.print_exc()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
