"""Helpers every workload shares: percentiles, stamps, memory, results."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

#: The checkout the benchmark runs in: the parent of ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores, journals and result records (git-ignored).
WORK = ROOT / ".perfbench"

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; below that it is an order statistic of a handful of requests.
MIN_TAIL_SAMPLES = 10


class BenchError(Exception):
    """The benchmark cannot produce a valid result (exit non-zero)."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the q-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def tail_percentile(values: list[float], q: float) -> float | None:
    """:func:`percentile`, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if beyond(len(values), q) < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, q)


def median(values: list[float]) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return statistics.median(values)


def _run_git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and bytes, sorted).

    Identifies the measured code where the checkout carries no git metadata.
    """
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def stamps(workload: str, seed: int, trace: bool) -> dict:
    """What was measured, on what: commit, dirty flag, interpreter, machine."""
    commit = dirty = None
    # Only a checkout that is itself a repository: git must not walk up into
    # whatever directory happens to contain this one.
    if (ROOT / ".git").exists():
        head = _run_git("rev-parse", "HEAD")
        commit = head.strip() if head else None
        status = _run_git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status.strip())
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def child_peak_rss_mib() -> float:
    """Largest peak resident set among this process's reaped children."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def write_record(name: str, record: dict) -> Path:
    """Keep the full result (stamps, sample counts, metrics) beside the run."""
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
