"""The ``experiment`` workload: the paper's study path, in-process.

One repetition = open a fresh engine (``jobs=2``) and store, run
``ExperimentRunner.run()`` over the fixed manifest below, then render the
report in all four formats from the finished directory — exactly the
``repro experiment run`` → ``repro experiment report`` path.  A run repeats
this until ``--seconds`` are used and reports medians.  Set-up time is
taken from launched processes instead (:func:`launch_set_up`), as for the
served workloads.

Run as a script (``python3 perfbench/batch.py set-up DIR SEED``), this file
is the set-up process :func:`launch_set_up` starts.

The manifest is fixed, so every run does the same work and the spread of
the numbers is measurement noise, not corpus luck: small seeded corpora
vary by 5x in study time from seed to seed.  The workload seed only orders
the manifest's sections (every section pins its own generator seed, so the
instances do not change), which changes the order jobs are dispatched in.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import ledger as ledger_mod
from common import (
    ROOT,
    WORK,
    BenchError,
    beyond,
    child_peak_rss_mib,
    median,
    peak_rss_mib,
    percentile,
)

#: Repetitions a run makes even when ``--seconds`` is shorter.
MIN_REPETITIONS = 3
#: Set-up processes launched per part (see :func:`launch_set_up`).
SET_UP_LAUNCHES = 4

#: The study: four of HyperBench's classes at scale 0.05 (corpus seed 8),
#: binary cliques K5/K6 (hw 3, so each gets a ghw portfolio race at k = 2
#: and a fracimprove search at k = 3) and cycles (hw 2), all with
#: ``timeout: null`` so every verdict is exact and every run does identical
#: work.  22 instances (cliques and cycles of one size share a fingerprint,
#: so the store answers the repeats), 38 journalled jobs: hw waves k = 1..3
#: through ``map_checks``, 3-way ``race_checks`` races and 10 fracimprove
#: searches.  About 2.1 s with two workers on a 2-core box.  The random-CSP
#: class is left out: its instances at small scale are dominated by single
#: multi-second searches whose timing swings run to run.
MANIFEST = {
    "name": "perfbench-experiment",
    "seed": 8,
    "deterministic": True,
    "sections": [
        {"family": "cq_application", "count": 3, "seed": 8},
        {"family": "cq_random", "count": 2, "seed": 8},
        {"family": "csp_application", "count": 3, "seed": 8},
        {"family": "csp_other", "count": 2, "seed": 8},
        {"family": "clique", "count": 8, "seed": 3, "params": {"size": [5, 6]}},
        {"family": "cycle", "count": 4, "seed": 3, "params": {"size": [6, 12]}},
    ],
    "protocol": {
        "timeout": None,
        "frac_timeout": None,
        "max_k": 4,
        "ghw_ks": [3],
        "hw_values": [2, 3],
    },
}

#: Expected answers per instance name: (hw, verdict of the ghw race at
#: k = hw - 1, when the protocol runs one).  hw comes from the frozen
#: reference DetKDecomp (``check_hd_reference``), the race verdict from the
#: frozen reference BalSep (``check_ghd_balsep_reference``); ``selftest.py``
#: re-derives the table.  A fracimprove verdict at k = hw is "yes" by
#: definition: its decision is ``Check(HD, k)``'s.  Jobs are found through
#: the fingerprint the run itself journals for each name, so a change to the
#: program's fingerprint does not read as a wrong answer.
EXPECTED = {
    "cq_app_0000": (1, None),
    "cq_app_0001": (1, None),
    "cq_app_0002": (1, None),
    "cq_rand_0000": (2, None),
    "cq_rand_0001": (2, None),
    "csp_app_0000": (2, None),
    "csp_app_0001": (2, None),
    "csp_app_0002": (1, None),
    "csp_other_0000": (2, None),
    "csp_other_0001": (2, None),
    "clique_3_0000_K5": (3, "no"),
    "clique_3_0001_K5": (3, "no"),
    "clique_3_0002_K6": (3, "no"),
    "clique_3_0003_K6": (3, "no"),
    "clique_3_0004_K5": (3, "no"),
    "clique_3_0005_K5": (3, "no"),
    "clique_3_0006_K6": (3, "no"),
    "clique_3_0007_K6": (3, "no"),
    "cycle_3_0000_n7": (2, None),
    "cycle_3_0001_n10": (2, None),
    "cycle_3_0002_n10": (2, None),
    "cycle_3_0003_n7": (2, None),
}
#: :func:`corpus_digest` of the manifest's instances when :data:`EXPECTED`
#: was derived.  A different digest means the program's generators now build
#: other instances, for which the table says nothing.
CORPUS_DIGEST = "c8c8bdb614e840d892e03d13019b8aa5549828d7f4a6142b6f0d245b8901329d"


def manifest(seed: int):
    """The fixed manifest with its sections in the seed's order."""
    from repro.experiment.corpus import Manifest

    payload = dict(MANIFEST, sections=list(MANIFEST["sections"]))
    random.Random(f"{seed}:sections").shuffle(payload["sections"])
    return Manifest.from_dict(payload)


def corpus_digest(seed: int = 0) -> str:
    """SHA-256 over the names and edge lists of the manifest's instances, in
    the benchmark's own canonical form (independent of section order)."""
    from repro.experiment.corpus import build_corpus

    instances = sorted(
        (entry.name, sorted((edge, sorted(vertices))
                            for edge, vertices in entry.hypergraph.edges.items()))
        for entry in build_corpus(manifest(seed))
    )
    return hashlib.sha256(json.dumps(instances).encode()).hexdigest()


@functools.cache
def _corpus_drift() -> str | None:
    digest = corpus_digest()
    if digest != CORPUS_DIGEST:
        return f"corpus drifted: digest {digest} != {CORPUS_DIGEST}"
    return None


def check_journal(directory: Path) -> list[str]:
    """Compare the finished run's journalled verdicts with :data:`EXPECTED`."""
    from repro.engine.jobs import Journal
    from repro.experiment.runner import MetaJournal

    drift = _corpus_drift()
    if drift is not None:
        return [drift]
    fingerprints = {
        r["name"]: r["fingerprint"]
        for r in MetaJournal(directory / "meta.jsonl").load()
        if r.get("type") == "instance"
    }
    jobs = Journal(directory / "jobs.jsonl").load()
    wrong = []
    if set(fingerprints) != set(EXPECTED):
        return [f"instances journalled: {sorted(fingerprints)}"]
    for name, (hw, race) in EXPECTED.items():
        fp = fingerprints[name]
        ascent = {
            key[3]: payload.get("verdict")
            for key, payload in jobs.items()
            if key[0] == "check" and key[1] == fp and key[2] == "hd"
        }
        first_yes = min((k for k, v in ascent.items() if v == "yes"), default=None)
        if first_yes != hw or any(ascent.get(k) != "no" for k in range(1, hw)):
            wrong.append(f"{name}: hw ascent {sorted(ascent.items())}, reference hw {hw}")
        if race is not None:
            got = [
                payload.get("verdict") for key, payload in jobs.items()
                if key[0] == "portfolio" and key[1] == fp and key[3] == hw - 1
            ]
            if got != [race]:
                wrong.append(f"{name}: ghw race at k={hw - 1} gave {got}, reference {race}")
        if hw in MANIFEST["protocol"]["hw_values"]:
            got = [
                payload.get("verdict") for key, payload in jobs.items()
                if key[0] == "check" and key[1] == fp and key[2] == "fracimprove"
            ]
            if got != ["yes"]:
                wrong.append(f"{name}: fracimprove at k={hw} gave {got}, expected ['yes']")
    return wrong


def _set_up(seed: int, directory: Path):
    """Fresh directory, engine (``jobs=2``) and store, runner: the set-up
    ``repro experiment run`` does.  Returns (engine, runner)."""
    from repro.engine.engine import DecompositionEngine
    from repro.engine.shards import open_result_store
    from repro.experiment.runner import ExperimentRunner

    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    engine = DecompositionEngine(store=open_result_store(directory / "store.db"), jobs=2)
    return engine, ExperimentRunner(directory, engine, manifest=manifest(seed))


def launch_set_up(seed: int, directory: Path) -> float:
    """Seconds from launching a fresh interpreter until it has imported the
    program and run :func:`_set_up` — launch until ready, like ``setup_s``
    of the served workloads.  Set-up alone is a few milliseconds of file
    creation whose cost follows the shared disk more than the code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(Path(__file__)), "set-up", str(directory), str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stdin=subprocess.DEVNULL) as child:
        ready = child.stdout.readline()
        seconds = time.perf_counter() - started
        child.stdout.read()
    shutil.rmtree(directory, ignore_errors=True)
    if ready != b"ready\n" or child.returncode != 0:
        raise BenchError(f"set-up process failed ({child.returncode}, {ready!r})")
    return seconds


class Repetition:
    """Timings and checks of one set-up → run → report cycle."""

    def __init__(self, seed: int, directory: Path):
        from repro.engine.jobs import Journal
        from repro.perf import counters

        engine, runner = _set_up(seed, directory)
        kernel_before = counters.snapshot()
        self.window = (time.time(), 0.0)
        try:
            started = time.perf_counter()
            runner.run()
            self.run_s = time.perf_counter() - started
            self.window = (self.window[0], time.time())
            self.engine_stats = engine.stats.snapshot()
        finally:
            engine.close()
        self.kernel = counters.delta_since(kernel_before)
        journalled = Journal(directory / "jobs.jsonl").load()
        self.jobs = len(journalled)
        self.failed = sum(
            1 for payload in journalled.values()
            if payload.get("verdict") not in ("yes", "no")
        )
        # Job latency as the engine journals it (dispatch to result), for
        # the jobs that executed rather than replayed from the store.
        self.job_ms = [
            payload["seconds"] * 1000.0
            for payload in journalled.values()
            if not payload.get("cached")
        ]
        self.report_s, self.render_ms, self.replay_s = self._report(directory)
        self.wrong = check_journal(directory)
        shutil.rmtree(directory, ignore_errors=True)

    @staticmethod
    def _report(directory: Path) -> tuple[float, dict, float]:
        """``repro experiment report``: ``ExperimentResults`` + ``write_report``
        in every format.  Returns seconds in all, ms per format, and seconds
        of the replay (``results.study``) the renderers share."""
        from repro.experiment.report import REPORT_FORMATS, write_report
        from repro.experiment.results import ExperimentResults

        dest = directory / "report"
        render_ms = {}
        started = time.perf_counter()
        with ExperimentResults(directory) as results:
            results.study
            replay_s = time.perf_counter() - started
            for fmt in REPORT_FORMATS:
                began = time.perf_counter()
                write_report(results, dest, (fmt,))
                render_ms[fmt] = (time.perf_counter() - began) * 1000.0
        return time.perf_counter() - started, render_ms, replay_s

    @property
    def throughput(self) -> float:
        return self.jobs / self.run_s


def _repeat(seed: int, seconds: float, root: Path) -> list[Repetition]:
    reps: list[Repetition] = []
    until = time.perf_counter() + seconds
    while len(reps) < MIN_REPETITIONS or time.perf_counter() < until:
        reps.append(Repetition(seed, root / f"rep-{len(reps)}"))
    return reps


def _layers(rep: Repetition, probes: ledger_mod.Ledger, spans: list[dict]) -> dict:
    lo, hi = rep.window
    records = probes.window(lo, hi)
    metrics = ledger_mod.probe_metrics(records, [s for s in spans if lo <= s["start"] <= hi])
    metrics.update(ledger_mod.phase_metrics(records))
    metrics.update({
        "engine.engine.executed": rep.engine_stats.get("executed", 0),
        "engine.engine.cache_hits": rep.engine_stats.get("cache_hits", 0),
        "engine.engine.implied": rep.engine_stats.get("implied", 0),
        "decomp.components_calls": rep.kernel.get("components_calls", 0),
        "decomp.cover_enumerations": rep.kernel.get("cover_enumerations", 0),
        "experiment.results.replay_s": rep.replay_s,
        "experiment.report.render_ms_md": rep.render_ms.get("md", 0.0),
        "experiment.report.render_ms_html": rep.render_ms.get("html", 0.0),
        "experiment.report.render_ms_csv": rep.render_ms.get("csv", 0.0),
        "experiment.report.render_ms_json": rep.render_ms.get("json", 0.0),
        "trace.uncovered_share": (rep.run_s - ledger_mod.self_total(records)) / rep.run_s,
    })
    return metrics


def _outcome(reps: list[Repetition]) -> dict:
    wrong = [problem for rep in reps for problem in rep.wrong]
    return {
        "correct": not wrong,
        "attempted": sum(rep.jobs for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "wrong": wrong[:10],
    }


def experiment_part(seed: int, seconds: float, part: int) -> dict:
    """Repetitions for ``seconds``; raw samples for :func:`combine_experiment`."""
    root = WORK / f"experiment-{seed}-{part}-{os.getpid()}"
    try:
        setups = [launch_set_up(seed, root / f"set-up-{n}") for n in range(SET_UP_LAUNCHES)]
        reps = _repeat(seed, seconds, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return dict(
        _outcome(reps),
        setup_s=setups,
        throughput=[rep.throughput for rep in reps],
        job_ms=[ms for rep in reps for ms in rep.job_ms],
        report_s=[rep.report_s for rep in reps],
        peak_rss_mb=max(peak_rss_mib(), child_peak_rss_mib()),
    )


def combine_experiment(parts: list[dict]) -> dict:
    def pooled(key: str) -> list[float]:
        return [value for part in parts for value in part[key]]

    job_ms = pooled("job_ms")
    wrong = [problem for part in parts for problem in part["wrong"]]
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong[:10],
        "metrics": {
            "setup_s": median(pooled("setup_s")),
            "throughput_per_s": median(pooled("throughput")),
            "latency_p50_ms": percentile(job_ms, 50),
            "latency_p99_ms": percentile(job_ms, 99),
            "success_share": 1.0 - failed / attempted,
            "report_s": median(pooled("report_s")),
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        },
        "samples": {
            "parts": len(parts),
            "repetitions": len(pooled("throughput")),
            "job_latencies": len(job_ms),
            "job_latencies_beyond_p99": beyond(len(job_ms), 99),
        },
    }


def experiment_traced(seed: int, seconds: float) -> dict:
    """Untraced then traced repetitions, ``seconds``/2 each.  Probe records
    and spans stay in memory until the traced repetitions are done."""
    root = WORK / f"experiment-{seed}-traced-{os.getpid()}"
    try:
        base = _repeat(seed, seconds / 2, root)
        probes = ledger_mod.install(ledger_mod.Ledger())
        ring = ledger_mod.keep_spans()
        try:
            traced = _repeat(seed, seconds / 2, root)
        finally:
            spans = ledger_mod.restore_spans(ring)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    per_rep = [_layers(rep, probes, spans) for rep in traced]
    metrics = {name: median([layers[name] for layers in per_rep]) for name in per_rep[0]}
    metrics["trace.overhead_share"] = (
        median([r.throughput for r in base]) / median([r.throughput for r in traced]) - 1.0
    )
    return dict(
        _outcome(base + traced),
        metrics=metrics,
        samples={"untraced": len(base), "traced": len(traced), "spans": len(spans)},
    )


if __name__ == "__main__":
    if sys.argv[1:2] != ["set-up"] or len(sys.argv) != 4:
        sys.exit("usage: python3 perfbench/batch.py set-up DIR SEED")
    ready_engine, _ = _set_up(int(sys.argv[3]), Path(sys.argv[2]))
    print("ready", flush=True)
    ready_engine.close()
