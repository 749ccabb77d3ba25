"""Unit tests for the generic engine's delivery path and proof memo.

The differential battery pins whole outcomes; these pin the two
mechanisms underneath that it cannot isolate: the scatter-free payload
merge (fan-in > 1 at one receiver, crashed receivers dropping) and the
memoised EARS/SEARS dissemination proof.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.backends import ScalarBackend
from repro.backends.batch import kernels
from repro.backends.batch.engine import _CellRun, _or_rows, _unique_passes, run_cell
from repro.backends.batch.waves import KIND_RELATION, WaveBuilder
from repro.experiments.config import TrialSpec

_ASLEEP = 1


@pytest.mark.parametrize("dest", [[4, 1, 4, 0, 4, 1, 7], [3, 2, 1], [5, 5, 5, 5]])
def test_or_rows_equals_unbuffered_or(dest):
    rng = np.random.default_rng(len(dest))
    dest = np.asarray(dest)
    rows = rng.integers(0, 256, size=(dest.size, 6), dtype=np.uint8)
    target = rng.integers(0, 256, size=(8, 6), dtype=np.uint8)
    expected = target.copy()
    np.bitwise_or.at(expected, dest, rows)
    passes = _unique_passes(dest)
    if passes is not None:  # one pass per duplicate-occurrence rank
        assert len(passes) == np.bincount(dest).max()
    _or_rows(target, dest, rows, passes)
    assert (target == expected).all()


def test_deliver_merges_fan_in_and_drops_crashed_receivers():
    n, T = 12, 2
    cell = _CellRun(TrialSpec(protocol="ears", adversary="none", n=n, f=3, seed=0),
                    [0, 1], record_draws=False)
    rng = np.random.default_rng(7)
    # Trial 0: senders 0, 1, 2 all hit receiver 3 (asleep) in one step;
    # sender 4 hits receiver 5, which crashes while the message travels.
    # Trial 1: one message to receiver 3, so fan-in differs by trial.
    ti = np.array([0, 0, 0, 0, 1])
    si = np.array([0, 1, 2, 4, 0])
    ri = np.array([3, 3, 3, 5, 3])
    rows_g = rng.integers(0, 256, size=(5, cell.W), dtype=np.uint8)
    rows_i = rng.integers(0, 256, size=(5, n, cell.W), dtype=np.uint8)
    builder = WaveBuilder(n, cell.W, relational=True)
    uid = builder.add_snap_rows(rows_g, rows_i) + np.arange(5)
    builder.add_block(ti, si, ri, KIND_RELATION, uid)
    wave = builder.build(cell.now, cell.plan.delta, cell.plan.d)
    cell.inflight.add(wave)
    assert cell.inflight.next_arrival.tolist() == [2, 2]
    assert cell.inflight.to_correct(cell.status).tolist() == [4, 1]

    cell.status[0, 3] = _ASLEEP
    cell._crash(0, 5)
    assert cell.inflight.to_correct(cell.status).tolist() == [3, 1]
    cell.now[:] = 2
    cell._deliver()

    fan_in = [0, 1, 2]
    assert (cell.pend_g[0, 3] == np.bitwise_or.reduce(rows_g[fan_in])).all()
    assert (cell.pend_i[0, 3] == np.bitwise_or.reduce(rows_i[fan_in])).all()
    assert (cell.pend_g[1, 3] == rows_g[4]).all()
    assert cell.received[0].tolist() == [0, 0, 0, 3] + [0] * (n - 4)
    assert cell.received[1, 3] == 1
    assert not cell.pend_g[0, 5].any() and not cell.pend_i[0, 5].any()
    assert cell.wake_counts[0, 3] == 1  # woken once, not once per message
    assert not cell.inflight.pending.any()
    assert cell.inflight.next_arrival.tolist() == [2**62, 2**62]


class _CheckedEars(kernels.EarsKernel):
    """Recompute the proof for every candidate; compare with the memo."""

    reused = 0

    def _sleepers(self, g, due):
        cand = due & self.has_sent & (self.quiet >= self.patience)
        _CheckedEars.reused += int((cand & self.proof_fresh).sum())
        sleep = super()._sleepers(g, due)
        cti, cpi = np.nonzero(cand)
        assert self.proof_fresh[cti, cpi].all()
        assert (self.proof[cti, cpi] == self._proved(g, cti, cpi)).all()
        return sleep


def test_memoised_proof_equals_recomputation(monkeypatch):
    monkeypatch.setitem(kernels._KERNELS, "ears", _CheckedEars)
    _CheckedEars.reused = 0
    spec = TrialSpec(protocol="ears", adversary="str-2.1.0", n=24, f=7, seed=0)
    seeds = list(range(6))
    outcomes = run_cell(spec, seeds)
    assert _CheckedEars.reused > 0  # the memo actually served verdicts
    scalar = ScalarBackend()
    for seed, outcome in zip(seeds, outcomes):
        expected = scalar.run_one(dataclasses.replace(spec, seed=seed))
        assert json.dumps(outcome.to_wire()) == json.dumps(expected.to_wire())
