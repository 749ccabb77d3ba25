"""Compare two sets of benchmark results from the same host.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``result-*.json`` records written by ``run.py``
(``.perfbench-out/`` by default). For every workload and end-to-end
metric it prints both medians, their quartile spread and the change,
flagging a change worse than the metric's bound in ``BENCHMARK.json``.
Records from different hosts (CPU count or model, Python or numpy
version) are refused, not diffed: a baseline from another machine
says nothing about this one. Exit status: 0 within bounds, 1 when a
metric regressed past its bound, 2 when the comparison is refused.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(directory: pathlib.Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("result-*.json"))]
    return [r for r in records if r["trace"] == 0]


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: no untraced result-*.json records in one of the directories",
              file=sys.stderr)
        return 2
    hosts = {json.dumps(r["env"]["host"], sort_keys=True) for r in base + new}
    if len(hosts) != 1:
        print("compare: REFUSED — results come from different hosts:", file=sys.stderr)
        for host in sorted(hosts):
            print(f"  {host}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(workload)
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            b = [r["metrics"][name] for r in base if r["workload"] == workload]
            n = [r["metrics"][name] for r in new if r["workload"] == workload]
            (bm, bs), (nm, ns) = spread(b), spread(n)
            change = (nm - bm) / bm
            worse = change > bound if better == "lower" else -change > bound
            status |= worse
            print(f"  {name:<18} {bm:>12.4f} (±{bs:.1%}, n={len(b)}) -> "
                  f"{nm:>12.4f} (±{ns:.1%}, n={len(n)})  {change:+.1%}"
                  + ("  REGRESSED" if worse else ""))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
