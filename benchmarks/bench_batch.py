"""Batch-backend speedup: how much faster is the vectorized engine?

Two faces:

- ``pytest benchmarks/bench_batch.py --benchmark-only`` measures the
  same batchable cell through the scalar oracle and the vectorized
  batch backend as pytest-benchmark groups;
- ``python benchmarks/bench_batch.py`` is the self-contained gate CI's
  backend-differential job runs: it times both backends on
  representative batchable cells (best-of-R to damp scheduler noise)
  and exits non-zero when any cell's speedup falls below the floor in
  the committed baseline (``benchmarks/baselines/BATCH_BASELINE.json``,
  10x by default). The vectorized engine justifies its second
  implementation of the simulation semantics *only* through this
  ratio — if it ever decays to scalar-like throughput the extra
  surface is pure liability, so the floor is a contract, not a
  curiosity.

The randomized kernels (push/pull/ears/sears under replayed
adversaries) pay for draw-exactness with one scalar RNG call per
protocol draw, so they cannot match the deterministic kernels' 10x.
They carry their own committed floor
(``benchmarks/baselines/BATCH_RANDOMIZED_BASELINE.json``, 5x) over a
separate cell set; ``--check`` gates both sets, while the bare
invocation keeps its historical meaning (deterministic cells only).
``--cell PROTOCOL:ADVERSARY:N`` (repeatable) measures the named cells
instead and only reports, e.g. the Figure-3 N=100 cells at two seeds
per cell (``--scalar-trials 2 --batch-trials 2``).

The gate is a ratio of two rates measured in the same process on the
same machine, so unlike the absolute rates in BENCH_*.json reports it
is portable across hardware.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import pytest

from repro.backends import BatchBackend, ScalarBackend
from repro.experiments.config import TrialSpec

#: Representative batchable cells: the per-step unicast worst case and
#: the one-burst flood best case, both at paper scale F = 0.3 N.
CELLS = (
    {"protocol": "round-robin", "adversary": "str-1", "n": 48},
    {"protocol": "flood", "adversary": "oblivious", "n": 64},
)

#: Representative randomized cells: uniform-push under a static and an
#: adaptive adversary, and the heaviest relational kernel under the
#: UGF's hardest probe. The pull family sits just at the 5x line on
#: commodity CPUs (see docs/PERFORMANCE.md), so it is covered by the
#: differential battery but deliberately not gated here.
RANDOMIZED_CELLS = (
    {"protocol": "push", "adversary": "str-1", "n": 48},
    {"protocol": "push", "adversary": "ugf", "n": 48},
    {"protocol": "sears", "adversary": "str-2.1.1", "n": 32},
)

BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "BATCH_BASELINE.json"
RANDOMIZED_BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "BATCH_RANDOMIZED_BASELINE.json"
)


def specs_for(cell: dict, trials: int) -> list[TrialSpec]:
    return [
        TrialSpec(
            protocol=cell["protocol"],
            adversary=cell["adversary"],
            n=cell["n"],
            f=max(1, round(0.3 * cell["n"])),
            seed=seed,
        )
        for seed in range(trials)
    ]


@pytest.mark.benchmark(group="backend")
@pytest.mark.parametrize(
    "cell",
    CELLS + RANDOMIZED_CELLS,
    ids=lambda c: f"{c['protocol']}-{c['adversary']}-n{c['n']}",
)
@pytest.mark.parametrize("backend", ["scalar", "batch"])
def test_backend_throughput(benchmark, cell, backend):
    specs = specs_for(cell, 16 if backend == "scalar" else 128)
    impl = ScalarBackend() if backend == "scalar" else BatchBackend()
    benchmark(impl.run_batch, specs)


def measure_speedup(
    cell: dict, *, scalar_trials: int, batch_trials: int, repeats: int
) -> "tuple[float, float, float]":
    """Best-of-*repeats* (scalar rate, batch rate, speedup) for *cell*.

    Rates are trials/second; the speedup divides the two best rates,
    so one scheduler-quiet round per backend suffices.
    """
    scalar, batch = ScalarBackend(), BatchBackend()
    scalar_specs = specs_for(cell, scalar_trials)
    batch_specs = specs_for(cell, batch_trials)
    for spec in batch_specs:
        verdict = batch.eligible(spec)
        if not verdict:
            raise RuntimeError(f"bench cell not batch-eligible: {verdict.reason}")
    best_scalar = best_batch = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        scalar.run_batch(scalar_specs)
        best_scalar = max(best_scalar, scalar_trials / (time.perf_counter() - t0))
        t0 = time.perf_counter()
        batch.run_batch(batch_specs)
        best_batch = max(best_batch, batch_trials / (time.perf_counter() - t0))
    return best_scalar, best_batch, best_batch / best_scalar


def load_floor(path: pathlib.Path) -> float:
    record = json.loads(path.read_text())
    return float(record["min_speedup"])


def gate_cells(cells, floor: float, label: str, args) -> bool:
    """Measure every cell in *cells* and gate the worst against *floor*."""
    worst = None
    for cell in cells:
        scalar_rate, batch_rate, speedup = measure_speedup(
            cell,
            scalar_trials=args.scalar_trials,
            batch_trials=args.batch_trials,
            repeats=args.repeats,
        )
        print(
            f"{cell['protocol']} vs {cell['adversary']} (N={cell['n']}): "
            f"scalar {scalar_rate:8.1f}/s  batch {batch_rate:8.1f}/s  "
            f"speedup {speedup:6.1f}x"
        )
        if worst is None or speedup < worst:
            worst = speedup

    print(f"worst {label} speedup: {worst:.1f}x (floor: {floor:.0f}x)")
    if floor > 0 and worst is not None and worst < floor:
        print(
            f"FAIL: {label} batch speedup {worst:.1f}x below the "
            f"{floor:.0f}x floor",
            file=sys.stderr,
        )
        return False
    return True


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scalar-trials", type=int, default=24, help="trials per scalar timing"
    )
    parser.add_argument(
        "--batch-trials", type=int, default=256, help="trials per batch timing"
    )
    parser.add_argument("--repeats", type=int, default=3, help="timings (best wins)")
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate the randomized cells against their own floor "
        f"({RANDOMIZED_BASELINE_PATH.name}) in addition to the "
        "deterministic cells",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=BASELINE_PATH,
        help="baseline JSON with the min_speedup floor "
        f"(default: {BASELINE_PATH})",
    )
    parser.add_argument(
        "--randomized-baseline",
        type=pathlib.Path,
        default=RANDOMIZED_BASELINE_PATH,
        help="baseline JSON with the randomized-cell floor "
        f"(default: {RANDOMIZED_BASELINE_PATH})",
    )
    parser.add_argument(
        "--fail-under",
        type=float,
        default=None,
        metavar="RATIO",
        help="override both baseline floors (<= 0 disables the gates)",
    )
    parser.add_argument(
        "--cell",
        action="append",
        default=[],
        metavar="PROTOCOL:ADVERSARY:N",
        help="measure this cell (F = 0.3 N) instead of the gated sets and "
        "report its speedup without gating; repeatable",
    )
    args = parser.parse_args(argv)

    if args.cell:
        cells = []
        for text in args.cell:
            protocol, adversary, n = text.split(":")
            cells.append({"protocol": protocol, "adversary": adversary, "n": int(n)})
        gate_cells(cells, 0.0, "requested-cell", args)
        return 0

    gates = [(CELLS, args.baseline, "deterministic-cell")]
    if args.check:
        gates.append((RANDOMIZED_CELLS, args.randomized_baseline, "randomized-cell"))

    ok = True
    for cells, baseline, label in gates:
        floor = args.fail_under
        if floor is None:
            try:
                floor = load_floor(baseline)
            except (OSError, ValueError, KeyError) as exc:
                print(f"BASELINE UNREADABLE: {baseline}: {exc}", file=sys.stderr)
                return 1
        ok = gate_cells(cells, floor, label, args) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
