"""Vectorized numpy batch backend (a package of cooperating kernels).

Advances hundreds of trials at once for the protocol×adversary cells
whose dynamics the vectorized engines can replay *exactly*. Two engine
tiers share the backend:

- :mod:`~repro.backends.batch.legacy` — the deterministic lockstep
  kernel for ``flood``/``round-robin`` under non-retiming adversaries
  (``none``/``str-1``/``oblivious``/``omission``). No per-step RNG, no
  timing grids; the fastest path (≥10× floor, typically 25–300×).
- :mod:`~repro.backends.batch.engine` — the generic grid engine for
  the randomized protocols (``push``, ``pull``, ``push-pull``,
  ``ears``, ``sears``) and the full replayable adversary set
  (including ``ugf`` and the ``str-2.<k>.<l>`` family). Per-step
  protocol draws go through the RNG replay plane
  (:mod:`~repro.backends.batch.rng`) in scalar draw order; adversary
  setup draws and retimes are compiled into plans
  (:mod:`~repro.backends.batch.adversaries`); each step's sends form
  a COO wave, and undelivered messages sit in an in-flight store
  indexed by (trial, arrival step) with per-trial arrival heaps
  (:mod:`~repro.backends.batch.waves`). Slower than the lockstep
  kernel — draws stay scalar — but still ≥5× the oracle.

Eligibility (and the narrowest-reason rejection discipline) lives in
:mod:`~repro.backends.batch.eligibility`; verdicts are memoized per
cell for the campaign router.

**Equivalence.** Outcomes are byte-identical at the wire level to the
scalar oracle for every eligible cell — the differential battery in
``tests/backends/`` pins the full grid, and the seeded draw-order
property test pins the replay plane draw-for-draw.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.backends.base import Backend, Eligibility
from repro.backends.batch.eligibility import (
    BATCH_ADVERSARIES,
    BATCH_PROTOCOLS,
    clear_eligibility_memo,
    eligibility_grid,
    format_grid,
    topology_grid,
    why_ineligible,
)
from repro.backends.batch.engine import run_cell
from repro.backends.batch.legacy import (
    LEGACY_ADVERSARIES,
    LEGACY_PROTOCOLS,
    run_legacy_cell,
)
from repro.errors import SimulationError
from repro.experiments.config import TrialSpec
from repro.sim.outcome import Outcome

__all__ = [
    "BatchBackend",
    "BATCH_PROTOCOLS",
    "BATCH_ADVERSARIES",
    "why_ineligible",
    "clear_eligibility_memo",
    "eligibility_grid",
    "format_grid",
    "topology_grid",
]


class BatchBackend(Backend):
    """The vectorized engine behind ``--backend batch`` / auto routing."""

    name = "batch"

    def eligible(self, spec: TrialSpec) -> Eligibility:
        reason = why_ineligible(spec)
        return Eligibility(reason is None, reason)

    def run_batch(
        self, specs: Sequence[TrialSpec], *, metrics=None
    ) -> list[Outcome]:
        specs = list(specs)
        for spec in specs:
            reason = why_ineligible(spec)
            if reason is not None:
                raise SimulationError(
                    f"spec is not batch-eligible: {reason} ({spec})"
                )
        t0 = time.perf_counter() if metrics is not None else 0.0
        # Group by cell: trials of a cell differ only by seed and share
        # every state array; distinct cells vectorize independently.
        groups: dict[tuple, list[tuple[int, TrialSpec]]] = {}
        for idx, spec in enumerate(specs):
            key = (spec.protocol, spec.adversary, spec.n, spec.f, spec.max_steps)
            groups.setdefault(key, []).append((idx, spec))
        results: list[Outcome | None] = [None] * len(specs)
        for members in groups.values():
            spec0 = members[0][1]
            seeds = [spec.seed for _, spec in members]
            if (
                spec0.protocol in LEGACY_PROTOCOLS
                and spec0.adversary in LEGACY_ADVERSARIES
            ):
                outcomes = run_legacy_cell(spec0, seeds)
            else:
                outcomes = run_cell(spec0, seeds)
            for (idx, _), outcome in zip(members, outcomes):
                results[idx] = outcome
        if metrics is not None:
            metrics.observe_span("backend.batch.run", time.perf_counter() - t0)
            metrics.count("backend.batch.trials", len(specs))
            metrics.count("backend.batch.cells", len(groups))
        assert all(o is not None for o in results)
        return results  # type: ignore[return-value]
