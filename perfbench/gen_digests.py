"""Regenerate ``digests.json``: the committed wire digest of every
trial any workload seed can request.

Each workload draws its trial seeds from a finite pool
(``workloads.pool``); this script runs every (cell, pool seed) trial
on the scalar reference engine and records the sha256 of
``json.dumps(outcome.to_wire())``. The benchmark then checks each run's
outcomes against these digests, so regenerating the table is a
deliberate act: do it only when a change to the program is meant to
change outcome wires, and say which wires changed and why.

    python3 perfbench/gen_digests.py

The trials run on a pool of one worker per CPU this process may use.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.campaign import Campaign  # noqa: E402

import workloads  # noqa: E402
from run import NPROC  # noqa: E402


def dumps(data: dict) -> str:
    """The table as JSON with one line per cell, so a diff names cells."""
    workloads_json = []
    for name, cells in sorted(data["cells"].items()):
        rows = ",\n".join(
            f"   {json.dumps(cell)}: {json.dumps(row, separators=(',', ':'))}"
            for cell, row in sorted(cells.items())
        )
        workloads_json.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    return '{\n "cells": {\n' + ",\n".join(workloads_json) + "\n }\n}\n"


def main() -> int:
    data: dict = {"cells": {}}
    for name in workloads.WORKLOADS:
        trials = workloads.pool_trials(name)
        t0 = time.perf_counter()
        with Campaign(workers=NPROC, backend="scalar") as campaign:
            results = campaign.run_trials(trials)
        failed = [r for r in results if r.outcome is None]
        if failed:
            print(f"{name}: {len(failed)} trial(s) failed: {failed[0].error}", file=sys.stderr)
            return 1
        cells: dict[str, list[str]] = {}
        for r in results:
            row = cells.setdefault(workloads.cell_id(r.spec), [])
            assert len(row) == r.spec.seed, "pool trials must come in seed order"
            row.append(workloads.wire_digest(r.outcome))
        data["cells"][name] = cells
        print(f"{name}: {len(trials)} trials, {len(cells)} cells, "
              f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
    workloads.DIGESTS_PATH.write_text(dumps(data))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
