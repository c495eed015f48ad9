"""Traced ``repro serve`` for the per-layer ledger.

Usage: ``python3 perfbench/launch.py LEDGER.json SPANS.jsonl [serve flags...]``

Installs the benchmark's probes (:func:`ledger.install`) in this process and
keeps every finished span in memory (:func:`ledger.keep_spans`), then runs
the program's own CLI entry point, ``repro serve``, with the given flags —
so the server's defaults are exactly those of ``python -m repro serve``.
When the server exits (SIGTERM drains it), the probe records are written to
``LEDGER.json`` and the spans to ``SPANS.jsonl``, each in one go.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import ROOT

sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    records, spans = Path(argv[0]), Path(argv[1])
    from repro.cli import main as repro_main

    probes = ledger.install(ledger.Ledger())
    ledger.keep_spans()
    try:
        return repro_main(["serve", *argv[2:]])
    finally:
        records.write_text(json.dumps({"records": probes.records}))
        ledger.dump_spans(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
