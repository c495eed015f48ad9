"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, measured
in three child processes ("parts", see :data:`HASH_SEEDS`); ``--trace 1``
runs an untraced and a traced pass in this process and prints the per-layer
ledger.  ``perfbench/WORKLOADS.md`` defines every metric.  The
last line is one JSON object: ``{"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}``; the line before it stamps the
result (commit, interpreter, machine, seed).  The full record, with sample
counts, is also written under ``.perfbench/results/``.  Exit status: 0 for
a valid result with every answer right; 3 when the result line was printed
but some answer was wrong (``correct`` is false); 1 or 2, with no result
line, when no result could be produced — for example outside a checkout
with ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from common import ROOT, WORK, BenchError, log, stamps, write_record

WORKLOADS = ("experiment", "serve-cold", "serve-mixed")

#: An untraced run is split into one part per seed here, each a process of
#: its own (with its own server, for ``serve-*``) hashing strings with that
#: seed, and each measuring ``--seconds`` / 3.  Randomised string hashing
#: changes set iteration order, hence the decomposition search order and the
#: work done: one process to the next it moved ``serve-cold`` p99 by 30 %
#: and experiment throughput by 8 %.  A fixed set of seeds gives every run
#: and every commit the same three orders; the traced run uses the first.
HASH_SEEDS = ("1", "2", "3")
#: A part may take this long beyond ``--seconds`` (start-up, set-ups,
#: verification) before the run gives up on it.
PART_TIMEOUT_S = 40


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _pin_environment(hash_seed: str | None) -> None:
    """Keep temporary files inside the checkout and, with ``hash_seed``,
    re-execute under it; children inherit both."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(tmp)
    if hash_seed is not None and os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])


def _run_part(args) -> dict:
    """This process is one part: measure and return raw samples."""
    seconds = args.seconds / len(HASH_SEEDS)
    if args.workload == "experiment":
        import batch

        return batch.experiment_part(args.seed, seconds, args.part)
    import serving

    if args.workload == "serve-cold":
        return serving.serve_cold_part(args.seed, seconds, args.part, len(HASH_SEEDS))
    return serving.serve_mixed_part(args.seed, seconds, args.part, args.mixed_rate)


def _run_parts(args) -> dict:
    """Run every part in a child process, then pool their samples."""
    parts = []
    for part, hash_seed in enumerate(HASH_SEEDS):
        command = [
            sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--mixed-rate", str(args.mixed_rate), "--part", str(part),
        ]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                timeout=PART_TIMEOUT_S + args.seconds,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"part {part} timed out") from exc
        if done.returncode != 0:
            raise BenchError(f"part {part} failed with exit status {done.returncode}")
        parts.append(json.loads(done.stdout.decode().strip().splitlines()[-1]))
    if args.workload == "experiment":
        import batch

        return batch.combine_experiment(parts)
    import serving

    if args.workload == "serve-cold":
        return serving.combine_serve_cold(parts)
    return serving.combine_serve_mixed(parts)


def _run_traced(args) -> dict:
    if args.workload == "experiment":
        import batch

        return batch.experiment_traced(args.seed, args.seconds)
    import serving

    if args.workload == "serve-cold":
        return serving.serve_cold_traced(args.seed, args.seconds)
    return serving.serve_mixed_traced(args.seed, args.seconds, args.mixed_rate)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--mixed-rate", type=float, default=200.0, metavar="PER_S",
        help="serve-mixed open-loop Poisson arrival rate (requests/s)",
    )
    parser.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing")
        return 2
    trace = bool(args.trace)
    _pin_environment(HASH_SEEDS[0] if trace and args.part is None else None)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.part is not None:
            print(json.dumps(_run_part(args)))
            return 0
        declared = _declared()["per_layer" if trace else "end_to_end"]
        result = _run_traced(args) if trace else _run_parts(args)
        metrics = result["metrics"]
        if trace:
            # A layer the workload never calls (service.* on experiment,
            # experiment.* and engine.workers on serve-*) reads 0.
            result["bypassed"] = sorted(set(declared) - set(metrics))
            metrics.update({name: 0.0 for name in result["bypassed"]})
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        if missing or extra:
            raise BenchError(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")
    except BenchError as exc:
        log(f"error: {exc}")
        return 1
    stamp = stamps(args.workload, args.seed, trace)
    record = {
        "stamp": stamp,
        "mixed_rate": args.mixed_rate,
        "seconds": args.seconds,
        "hash_seeds": [HASH_SEEDS[0]] if trace else list(HASH_SEEDS),
        **result,
    }
    write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}", record)
    for problem in result.get("wrong", []):
        log(f"wrong answer: {problem}")
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0 if result["correct"] else 3


if __name__ == "__main__":
    sys.exit(main())
