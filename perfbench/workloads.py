"""The benchmark's four workloads: seeded spec generators and their jobs.

Every workload is a fixed *cell mix* (protocol x adversary x topology x
N) whose trial seeds are drawn, by the workload seed, from a finite
per-workload pool. The pool is what makes correctness checkable for
any workload seed: ``digests.json`` holds the sha256 of
``json.dumps(outcome.to_wire())`` for every (cell, pool seed), so the
expected digest of a run is known before it starts.

The program under test only ever sees the generated ``TrialSpec`` /
``SweepSpec`` objects, handed to its public entry points
(:func:`repro.experiments.figure3.run_figure3_panel`,
:meth:`repro.campaign.Campaign.run_sweep` and
:class:`repro.service.ServiceCampaign`).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from dataclasses import dataclass

from repro.experiments.config import SweepSpec, TrialSpec
from repro.experiments.figure3 import figure3_sweeps

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

#: The laptop N grid of Figure 3 (``repro.experiments.figure3``).
LAPTOP_N = (10, 20, 30, 50, 70, 100)
#: Large-N grid of the deterministic legacy cells.
DET_N = (100, 150, 200, 250, 300)
DET_ADVERSARIES = ("none", "oblivious", "str-1", "omission")
#: Off-clique and scalar-only clique sweeps: (protocol, adversary, topology).
TOPO_SWEEPS = (
    ("push-pull", "ugf", "random-regular:4"),
    ("ears", "ugf", "expander"),
    ("push-pull", "str-1", "ring:2"),
    ("hedged-push-pull", "ugf", None),
    ("recursive-doubling", "none", None),
    ("push-pull", "informed", None),
)

WORKLOADS = ("fig3-cold", "det-cold", "topo-scalar", "warm-replay")


@dataclass(frozen=True)
class Size:
    """How much of a workload one job runs.

    ``n_values`` must be a subset of the workload's grid and
    ``seeds`` at most its pool size, so every trial stays inside the
    committed digest table.
    """

    n_values: tuple[int, ...]
    seeds: int
    #: warm-replay only: requests per job (half daemon, half local).
    requests: int = 0
    #: Cold workloads: sweeps per request when they re-run a job warm
    #: (0 = the whole job in one request).
    warm_sweeps: int = 0


@dataclass(frozen=True)
class Pool:
    """The cell mix and trial-seed pool of one workload."""

    sweeps: tuple[SweepSpec, ...]
    seeds: int  # pool seeds are range(seeds)


def _sweep(protocol, adversary, n_values, topology=None, seeds=()):
    return SweepSpec(
        protocol=protocol,
        adversary=adversary,
        n_values=tuple(n_values),
        seeds=tuple(seeds),
        topology=topology,
    )


def _fig3_sweeps(n_values, seeds=()):
    out = []
    for panel in ("3a", "3b", "3c"):
        for sweep in figure3_sweeps(panel, n_values=n_values, seeds=seeds).values():
            out.append(sweep)
    return out


def pool(workload: str) -> Pool:
    """Distinct sweeps of *workload* over its full grid, and its seed pool."""
    if workload == "fig3-cold":
        distinct = {}
        for s in _fig3_sweeps(LAPTOP_N):
            distinct.setdefault((s.protocol, s.adversary), s)
        return Pool(tuple(distinct.values()), 16)
    if workload == "det-cold":
        return Pool(
            tuple(
                _sweep(p, a, DET_N)
                for p in ("flood", "round-robin")
                for a in DET_ADVERSARIES
            ),
            32,
        )
    if workload == "topo-scalar":
        return Pool(tuple(_sweep(p, a, LAPTOP_N, t) for p, a, t in TOPO_SWEEPS), 12)
    if workload == "warm-replay":
        # Flood cells: the cheapest to pre-fill (the legacy tier runs
        # them in milliseconds), so set-up stays short; a hit costs the
        # same whatever protocol produced the outcome.
        return Pool(tuple(_sweep("flood", a, LAPTOP_N) for a in DET_ADVERSARIES), 128)
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")


#: What one benchmark run's job is made of, per workload.
FULL = {
    "fig3-cold": Size(LAPTOP_N, 2),
    # Its outcomes are large (N up to 300): warm re-runs go half the
    # job at a time so the latency samples fit in a run.
    "det-cold": Size(DET_N, 6, warm_sweeps=4),
    "topo-scalar": Size(LAPTOP_N, 3),
    "warm-replay": Size(LAPTOP_N, 10, requests=40),
}
#: A few-second version of every workload, for the benchmark's tests.
TINY = {
    "fig3-cold": Size((10, 20), 1),
    "det-cold": Size((100,), 2),
    "topo-scalar": Size((10, 20), 1),
    "warm-replay": Size((10, 20), 2, requests=4),
}


# -- job plans -----------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One unit the job submits: a group of sweeps run back to back.

    ``via`` is ``"local"`` (a campaign in this process) or ``"service"``
    (the daemon); cold workloads only use ``"local"``.
    """

    sweeps: tuple[SweepSpec, ...]
    via: str = "local"
    #: fig3-cold: the Figure 3 panel these sweeps are.
    panel: str | None = None

    def trials(self) -> list[TrialSpec]:
        return [t for s in self.sweeps for t in s.trials()]


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    size: Size
    requests: tuple[Request, ...]
    job: int = 0

    def trials(self) -> list[TrialSpec]:
        """Every requested trial, in request and spec order."""
        return [t for r in self.requests for t in r.trials()]

    def warm_requests(self) -> list[Request]:
        """The job regrouped for a warm re-run: ``size.warm_sweeps``
        sweeps per request (all of them when 0), in job order."""
        sweeps = [s for r in self.requests for s in r.sweeps]
        step = self.size.warm_sweeps or len(sweeps)
        return [Request(tuple(sweeps[i : i + step])) for i in range(0, len(sweeps), step)]


def _rng(workload: str, seed: int, job: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{job}")


def _pick_seeds(rng: random.Random, pool_size: int, count: int) -> tuple[int, ...]:
    if count > pool_size:
        raise ValueError(f"{count} seeds requested from a pool of {pool_size}")
    return tuple(sorted(rng.sample(range(pool_size), count)))


def make_plan(workload: str, seed: int, size: Size | None = None, job: int = 0) -> Plan:
    """Job number *job* of *workload* for workload seed *seed*.

    The seed picks the trial seeds (from the workload's pool) and the
    request order; the cell mix is fixed. Successive jobs of one run
    draw afresh, so a run's median job averages over several draws
    instead of resting on one.
    """
    size = FULL[workload] if size is None else size
    p = pool(workload)
    grid = set(p.sweeps[0].n_values)
    if not set(size.n_values) <= grid:
        raise ValueError(f"{workload}: N values {size.n_values} outside {sorted(grid)}")
    rng = _rng(workload, seed, job)
    if workload == "fig3-cold":
        seeds = _pick_seeds(rng, p.seeds, size.seeds)
        panels = ["3a", "3b", "3c"]
        rng.shuffle(panels)
        requests = tuple(
            Request(
                tuple(figure3_sweeps(panel, n_values=size.n_values, seeds=seeds).values()),
                panel=panel,
            )
            for panel in panels
        )
    elif workload in ("det-cold", "topo-scalar"):
        seeds = _pick_seeds(rng, p.seeds, size.seeds)
        sweeps = [
            _sweep(s.protocol, s.adversary, size.n_values, s.topology, seeds)
            for s in p.sweeps
        ]
        rng.shuffle(sweeps)
        requests = tuple(Request((s,)) for s in sweeps)
    elif workload == "warm-replay":
        # A "panel": flood against three of the four adversaries.
        panels = [
            ("flood", tuple(a for a in DET_ADVERSARIES if a != left_out))
            for left_out in DET_ADVERSARIES
        ]
        requests = []
        for i in range(size.requests):
            if i % len(panels) == 0:
                rng.shuffle(panels)
            proto, advs = panels[i % len(panels)]
            seeds = _pick_seeds(rng, p.seeds, size.seeds)
            requests.append(
                Request(
                    tuple(_sweep(proto, a, size.n_values, None, seeds) for a in advs),
                    via="service" if i % 2 == 0 else "local",
                )
            )
        requests = tuple(requests)
    else:  # pragma: no cover - pool() already rejected it
        raise ValueError(workload)
    return Plan(workload, seed, size, requests, job)


def cell_mix(plan: Plan) -> dict[str, int]:
    """Trials per cell (protocol/adversary/topology/N), seeds ignored."""
    mix: dict[str, int] = {}
    for t in plan.trials():
        key = f"{t.protocol}|{t.adversary}|{t.topology or 'complete'}|{t.n}"
        mix[key] = mix.get(key, 0) + 1
    return mix


# -- correctness ---------------------------------------------------------------


#: Hex characters kept of each per-trial sha256 (64 bits: ample to
#: catch any changed wire, and it keeps ``digests.json`` small).
DIGEST_CHARS = 16


def cell_id(spec: TrialSpec) -> str:
    return f"{spec.protocol}|{spec.adversary}|{spec.topology or 'complete'}|{spec.n}|{spec.f}"


def wire_digest(outcome) -> str:
    """sha256 of ``json.dumps(outcome.to_wire())``, the repo's equality
    contract across backends, cache replay and the service."""
    wire = json.dumps(outcome.to_wire()).encode()
    return hashlib.sha256(wire).hexdigest()[:DIGEST_CHARS]


def fold(digests) -> str:
    """One digest over per-trial digests, in order."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
        h.update(b"\n")
    return h.hexdigest()


def pool_trials(workload: str, n_values: tuple[int, ...] | None = None) -> list[TrialSpec]:
    """Every (cell, pool seed) trial of *workload*, optionally only at
    *n_values*: the digest table's rows, and warm-replay's store."""
    p = pool(workload)
    return [
        t
        for s in p.sweeps
        for t in _sweep(
            s.protocol, s.adversary, n_values or s.n_values, s.topology, range(p.seeds)
        ).trials()
    ]


def load_table() -> dict[str, list[str]]:
    """cell id -> committed wire digests indexed by pool seed."""
    data = json.loads(DIGESTS_PATH.read_text())
    return {cell: ds for cells in data["cells"].values() for cell, ds in cells.items()}


def expected_digests(trials: list[TrialSpec], table: dict[str, list[str]]) -> list[str]:
    """The committed per-trial digests of *trials*, in order."""
    out = []
    for t in trials:
        row = table.get(cell_id(t))
        if row is None or not 0 <= t.seed < len(row):
            raise KeyError(f"trial not in digests.json: {cell_id(t)} seed {t.seed}")
        out.append(row[t.seed])
    return out
