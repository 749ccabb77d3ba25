"""The batch↔scalar differential battery (docs/BACKENDS.md).

The equivalence law is byte-level: on every eligible cell of the full
protocol×adversary grid, ``json.dumps(outcome.to_wire())`` from the
batch backend must equal the scalar oracle's, for several N and seeds.
Anything weaker ("same medians", "same gather verdict") would let the
vectorized engine drift on tie-breaking, counter accounting, or
truncation edges — exactly the bugs a rewrite introduces.
"""

import json

import pytest

from repro.backends import BatchBackend, ScalarBackend
from repro.core.registry import available_adversaries
from repro.experiments.config import TrialSpec
from repro.protocols.registry import available_protocols

SCALAR = ScalarBackend()
BATCH = BatchBackend()

# The full evaluation grid: every registered protocol against every
# concrete adversary (the str-2.<k>.<l> family contributes the two
# paper variants), 90 pairs total.
ADVERSARIES = [a for a in available_adversaries() if "<" not in a] + [
    "str-2.1.0",
    "str-2.1.1",
]
GRID = [(p, a) for p in available_protocols() for a in ADVERSARIES]

SIZES = [(2, 1), (5, 2), (9, 4), (16, 7)]
SEEDS = list(range(4))


def wire(outcome) -> str:
    return json.dumps(outcome.to_wire())


def test_grid_is_the_paper_grid():
    assert len(GRID) == 90


@pytest.mark.parametrize("protocol,adversary", GRID)
def test_eligible_cells_are_wire_identical(protocol, adversary):
    """Every eligible (protocol, adversary) cell, several N, byte-equal."""
    probe = TrialSpec(protocol=protocol, adversary=adversary, n=5, f=2, seed=0)
    if not BATCH.eligible(probe):
        pytest.skip(f"cell not batch-eligible: {BATCH.eligible(probe).reason}")
    specs = [
        TrialSpec(protocol=protocol, adversary=adversary, n=n, f=f, seed=seed)
        for n, f in SIZES
        for seed in SEEDS
    ]
    batch_outcomes = BATCH.run_batch(specs)
    for spec, batch_outcome in zip(specs, batch_outcomes):
        assert wire(batch_outcome) == wire(SCALAR.run_one(spec)), spec


#: High-N leg: multi-byte packed rows and several same-step arrivals at
#: one receiver (the fan-in the scatter-free merge splits into passes),
#: on the heaviest relational kernels and push-pull under the paper's
#: adaptive adversaries. F = 0.3 N like the figure grid.
HIGH_N_CELLS = [
    (p, a)
    for p in ("ears", "sears", "push-pull")
    for a in ("ugf", "str-2.1.0", "str-2.1.1")
]


@pytest.mark.parametrize("protocol,adversary", HIGH_N_CELLS)
def test_high_n_cells_are_wire_identical(protocol, adversary):
    specs = [
        TrialSpec(protocol=protocol, adversary=adversary, n=n, f=round(0.3 * n), seed=seed)
        for n in (40, 70)
        for seed in range(2)
    ]
    if not BATCH.eligible(specs[0]):
        pytest.skip(f"cell not batch-eligible: {BATCH.eligible(specs[0]).reason}")
    for spec, batch_outcome in zip(specs, BATCH.run_batch(specs)):
        assert wire(batch_outcome) == wire(SCALAR.run_one(spec)), spec


def test_some_cells_are_eligible():
    """The battery must not silently become vacuous: unless the
    environment pins a sanitizer (the CI sanitize job), the grid has
    batchable cells."""
    import os

    if os.environ.get("REPRO_SANITIZE"):
        pytest.skip("sanitizer pinned by environment: all cells scalar")
    eligible = [
        (p, a)
        for p, a in GRID
        if BATCH.eligible(TrialSpec(protocol=p, adversary=a, n=5, f=2, seed=0))
    ]
    # 7 vectorized protocols x (8 concrete adversaries + 2 str-2 probes
    # - 3 non-replayable) — the replay-plane engine took the grid from
    # 8 cells to the 49 of PR 8.
    assert len(eligible) >= 40


@pytest.mark.parametrize("max_steps", [1, 2, 3, 5, 64, 70])
def test_truncation_boundaries_are_wire_identical(max_steps):
    """max_steps truncation is the subtlest path: t_end freezes at the
    last *visited* step and completed stays False."""
    for protocol in ("flood", "round-robin", "push", "push-pull", "sears"):
        for adversary in ("none", "oblivious", "ugf"):
            spec = TrialSpec(
                protocol=protocol,
                adversary=adversary,
                n=9,
                f=4,
                seed=1,
                max_steps=max_steps,
            )
            if not BATCH.eligible(spec):
                pytest.skip("cell not batch-eligible here")
            assert wire(BATCH.run_batch([spec])[0]) == wire(SCALAR.run_one(spec))


def test_batch_is_pure_slicing():
    """A batch of one equals the corresponding slice of a mixed batch —
    no cross-trial state."""
    specs = [
        TrialSpec(protocol=p, adversary=a, n=n, f=f, seed=seed)
        for p in ("flood", "round-robin")
        for a in ("none", "str-1")
        for n, f in ((5, 2), (11, 5))
        for seed in (0, 3)
    ]
    if not all(BATCH.eligible(s) for s in specs):
        pytest.skip("cells not batch-eligible here")
    mixed = BATCH.run_batch(specs)
    for spec, from_mixed in zip(specs, mixed):
        assert wire(BATCH.run_batch([spec])[0]) == wire(from_mixed)


def test_word_boundary_n():
    """N crossing a packed-word boundary (64→65) keeps bit layouts right."""
    for adversary in ("none", "str-1"):
        spec = TrialSpec(
            protocol="round-robin", adversary=adversary, n=65, f=30, seed=2
        )
        if not BATCH.eligible(spec):
            pytest.skip("cell not batch-eligible here")
        assert wire(BATCH.run_batch([spec])[0]) == wire(SCALAR.run_one(spec))


def test_batch_validates_like_the_engine():
    """Parameter validation mirrors Simulator.__init__ (same error type)."""
    from repro.errors import ConfigurationError

    for bad in (
        TrialSpec(protocol="flood", adversary="none", n=1, f=0, seed=0),
        TrialSpec(protocol="flood", adversary="none", n=4, f=4, seed=0),
        TrialSpec(protocol="flood", adversary="none", n=4, f=1, seed=0, max_steps=0),
    ):
        if not BATCH.eligible(bad):
            pytest.skip("cells not batch-eligible here")
        with pytest.raises(ConfigurationError):
            BATCH.run_batch([bad])
        with pytest.raises(ConfigurationError):
            SCALAR.run_one(bad)


def test_run_batch_rejects_ineligible_specs():
    from repro.errors import SimulationError

    spec = TrialSpec(protocol="hedged-push-pull", adversary="ugf", n=5, f=1, seed=0)
    with pytest.raises(SimulationError, match="not batch-eligible"):
        BATCH.run_batch([spec])
