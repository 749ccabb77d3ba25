"""The generic vectorized engine: randomized protocols, replayed adversaries.

One :func:`run_cell` call simulates every trial of one (protocol,
adversary, n, f, max_steps) cell on a shared (T, N) grid. Unlike the
legacy lockstep kernel it does not assume unit timings or scripted
draws: per-trial *visited steps* are fast-forwarded exactly like the
scalar event loop (min over awake wake-ups, pending arrivals and the
adversary's scheduled wake-ups), each pass's sends freeze into a COO
wave that the in-flight store (``waves.InFlight``) books by (trial,
arrival step), and every protocol draw goes through the RNG replay
plane in scalar draw order. The result is
byte-identical ``Outcome``s — the differential battery compares
``to_wire()`` rows.

Scalar-fidelity notes, each load-bearing:

- the step-0 pass runs before the main loop and is followed by the
  adversary's ``after_step`` (Strategy 2.k.0 can spend budget at step
  0) and a ``steps_simulated`` tick for every trial;
- quiescence is checked before exhaustion: an all-asleep grid with no
  correct-bound traffic completes even when crashed-bound messages
  are still pending (those only force visited steps);
- truncation (next interesting step beyond ``max_steps``) freezes
  ``clock.now`` at the last *visited* step — ``t_end`` reports it;
- sleeping receivers wake at delivery and act the same step; a
  message to a receiver that crashed in flight keeps its booking in
  the store — its arrival step still pulls the clock forward, exactly
  like the scalar network's buckets — but is dropped when popped, and
  only messages to correct receivers count as in flight;
- payload merging is an order-free OR, so a step's arrivals merge
  into the pending rows with one plain fancy-index OR per
  duplicate-occurrence rank (:func:`_or_rows`) instead of the
  unbuffered ``ufunc.at``; only pull requests' order is observable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends.batch.adversaries import build_plan
from repro.backends.batch.kernels import make_kernel
from repro.backends.batch.rng import ReplayPlane
from repro.backends.batch.waves import (
    KIND_GOSSIP,
    KIND_PULL,
    KIND_RELATION,
    InFlight,
    Wave,
    WaveBuilder,
)
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import TrialSpec
from repro.protocols.bitset import packed_size
from repro.sim.outcome import Outcome

__all__ = ["run_cell"]

_AWAKE, _ASLEEP, _CRASHED = 0, 1, 2
_NEVER = 2**62


def _unique_passes(dest: np.ndarray) -> list[np.ndarray] | None:
    """Split message indices into passes whose destinations are unique.

    Pass k holds each destination's k-th message (a stable sort keeps
    them in delivery order), so the number of passes is the step's
    largest fan-in. None when every destination is already unique.
    """
    order = np.argsort(dest, kind="stable")
    starts = np.flatnonzero(np.diff(dest[order], prepend=-1))
    if starts.size == dest.size:
        return None
    rank = np.arange(dest.size) - np.repeat(starts, np.diff(starts, append=dest.size))
    return [order[rank == k] for k in range(int(rank.max()) + 1)]


def _or_rows(
    target: np.ndarray,
    dest: np.ndarray,
    rows: np.ndarray,
    passes: list[np.ndarray] | None,
) -> None:
    """``target[dest[j]] |= rows[j]`` for every j, duplicates included.

    One buffered fancy-index OR per pass of :func:`_unique_passes`
    (unique destinations), instead of the unbuffered ``bitwise_or.at``.
    """
    if passes is None:
        target[dest] |= rows
        return
    for sel in passes:
        target[dest[sel]] |= rows[sel]


class _CellRun:
    def __init__(self, spec0: TrialSpec, seeds: Sequence[int], record_draws: bool):
        n, f, max_steps = spec0.n, spec0.f, spec0.max_steps
        if n <= 1:
            raise ConfigurationError(f"an all-to-all system needs N >= 2, got N={n}")
        if not 0 <= f < n:
            raise ConfigurationError(
                f"crash budget must satisfy 0 <= F < N, got F={f}, N={n}"
            )
        if max_steps <= 0:
            raise ConfigurationError(f"max_steps must be positive, got {max_steps}")

        T = len(seeds)
        self.spec = spec0
        self.seeds = list(seeds)
        self.T, self.n, self.f = T, n, f
        self.max_steps = max_steps
        self.W = W = packed_size(n)

        self.kernel = make_kernel(spec0.protocol, n, f, T)
        self.relational = self.kernel.relational
        self.uses_pull = self.kernel.uses_pull
        self._snap_kind = KIND_RELATION if self.relational else KIND_GOSSIP
        self._snap_nbytes = W + n * W if self.relational else W

        self.plane = ReplayPlane(seeds, n, record=record_draws)
        self.plan = build_plan(spec0.adversary, seeds, n, f)
        self._any_omitted = bool(self.plan.omitted.any())

        # Knowledge grids: K is each process's packed gossip row; I (for
        # relational protocols) its packed relation matrix, own row
        # aliased to K's content by the merge rule.
        eye = np.zeros((n, W), dtype=np.uint8)
        eye[np.arange(n), np.arange(n) >> 3] = 128 >> (np.arange(n) & 7)
        self.K = np.tile(eye, (T, 1, 1))
        self.pend_g = np.zeros((T, n, W), dtype=np.uint8)
        if self.relational:
            self.I = np.zeros((T, n, n, W), dtype=np.uint8)
            self.I[:, np.arange(n), np.arange(n)] = eye
            self.pend_i = np.zeros((T, n, n, W), dtype=np.uint8)
        else:
            self.I = None
            self.pend_i = None

        self.status = np.zeros((T, n), dtype=np.int8)
        self.next_action = np.zeros((T, n), dtype=np.int64)
        self.now = np.zeros(T, dtype=np.int64)
        self.live = np.ones(T, dtype=bool)
        self.completed = np.zeros(T, dtype=bool)

        self.sent = np.zeros((T, n), dtype=np.int64)
        self.received = np.zeros((T, n), dtype=np.int64)
        self.bytes_sent = np.zeros((T, n), dtype=np.int64)
        self.sleep_counts = np.zeros((T, n), dtype=np.int64)
        self.wake_counts = np.zeros((T, n), dtype=np.int64)
        self.last_sleep = np.full((T, n), -1, dtype=np.int64)
        self.crash_step = np.full((T, n), -1, dtype=np.int64)
        self.steps_sim = np.zeros(T, dtype=np.int64)

        self.inflight = InFlight(T, n)
        self.builder: WaveBuilder | None = None
        #: (trial, pid) -> pull requesters awaiting an answer, in
        #: delivery order (== the scalar mailbox drain order).
        self.requesters: dict[tuple[int, int], list[int]] = {}

        for i, victims in enumerate(self.plan.setup_crashes):
            for rho in victims:
                self._crash(i, int(rho))

    # ------------------------------------------------------------ plumbing

    def _crash(self, t: int, p: int) -> None:
        self.status[t, p] = _CRASHED
        self.next_action[t, p] = _NEVER
        self.crash_step[t, p] = self.now[t]

    def send_snapshots_grouped(
        self,
        sti: np.ndarray,
        spi: np.ndarray,
        targets: np.ndarray,
        *,
        unique_senders: bool = True,
    ) -> None:
        """Bulk snapshot sends: each sender (sti[i], spi[i]) sends to
        every pid in ``targets[i]`` (a (S, k) matrix in per-sender send
        order). One knowledge-row copy per sender row, one COO block for
        the whole pass. Pass ``unique_senders=False`` when a sender may
        appear on several rows (pull's requester answers) — counter
        updates then go through the unbuffered scatter-add."""
        k = targets.shape[1]
        if unique_senders:
            self.sent[sti, spi] += k
            self.bytes_sent[sti, spi] += k * self._snap_nbytes
        else:
            np.add.at(self.sent, (sti, spi), k)
            np.add.at(self.bytes_sent, (sti, spi), k * self._snap_nbytes)
        if self._any_omitted:
            keep = ~self.plan.omitted[sti, spi]
            if not keep.all():
                sti, spi, targets = sti[keep], spi[keep], targets[keep]
        if sti.size == 0:
            return
        rows_g = self.K[sti, spi]
        rows_i = self.I[sti, spi] if self.relational else None
        base = self.builder.add_snap_rows(rows_g, rows_i)
        uid = base + np.arange(sti.size, dtype=np.int64)
        if k == 1:
            self.builder.add_block(sti, spi, targets[:, 0], self._snap_kind, uid)
        else:
            self.builder.add_block(
                np.repeat(sti, k),
                np.repeat(spi, k),
                targets.reshape(-1),
                self._snap_kind,
                np.repeat(uid, k),
            )

    def send_pulls_block(
        self, sti: np.ndarray, spi: np.ndarray, targets: np.ndarray
    ) -> None:
        """Bulk pull-request sends (unique senders, 1 byte each)."""
        self.sent[sti, spi] += 1
        self.bytes_sent[sti, spi] += 1
        if self._any_omitted:
            keep = ~self.plan.omitted[sti, spi]
            if not keep.all():
                sti, spi, targets = sti[keep], spi[keep], targets[keep]
        if sti.size:
            self.builder.add_block(
                sti, spi, targets, KIND_PULL, np.zeros(sti.size, dtype=np.int64)
            )

    # ------------------------------------------------------- step phases

    def _merge_due(self, due: np.ndarray) -> np.ndarray:
        """Drain pending payloads into K/I for due processes; return the
        learned mask (union taught an unknown bit — see kernels.py)."""
        ti, pi = np.nonzero(due)
        idx = ti * self.n + pi
        flat_k = self.K.reshape(-1, self.W)
        flat_p = self.pend_g.reshape(-1, self.W)
        pend = flat_p[idx]
        learned_rows = (pend & ~flat_k[idx]).any(axis=1)
        if self.relational:
            flat_i = self.I.reshape(-1, self.n * self.W)
            flat_pi = self.pend_i.reshape(-1, self.n * self.W)
            pend_i = flat_pi[idx]
            learned_rows |= (pend_i & ~flat_i[idx]).any(axis=1)
            flat_i[idx] |= pend_i
            self.I[ti, pi, pi] |= pend
            flat_pi[idx] = 0
        flat_k[idx] |= pend
        flat_p[idx] = 0
        learned = np.zeros_like(due)
        learned[ti, pi] = learned_rows
        return learned

    def _deliver(self) -> None:
        """Deliver every in-flight message arriving at a live trial's now."""
        got = self.inflight.pop_due(self.now, self.live, self.status)
        if got is None:
            return
        ti, si, ri, gossip, rows_g, rows_i = got
        n, W = self.n, self.W
        dest = ti * n + ri
        self.received += np.bincount(dest, minlength=self.T * n).reshape(self.T, n)
        if rows_g is not None:
            gdest = dest[gossip] if self.uses_pull else dest
            passes = _unique_passes(gdest)
            _or_rows(self.pend_g.reshape(-1, W), gdest, rows_g, passes)
            if self.relational:
                _or_rows(
                    self.pend_i.reshape(-1, n * W),
                    gdest,
                    rows_i.reshape(-1, n * W),
                    passes,
                )
        if self.uses_pull and not gossip.all():
            requesters = self.requesters
            for j in np.flatnonzero(~gossip).tolist():  # bucket order
                requesters.setdefault((int(ti[j]), int(ri[j])), []).append(int(si[j]))
        woken = np.zeros(self.T * n, dtype=bool)
        woken[dest] = True
        woken = woken.reshape(self.T, n) & (self.status == _ASLEEP)
        if woken.any():
            self.status[woken] = _AWAKE
            self.next_action[woken] = np.broadcast_to(
                self.now[:, None], woken.shape
            )[woken]
            self.wake_counts[woken] += 1

    def _local_pass(self) -> Wave | None:
        """Run every due process's local step; freeze the sends."""
        due = (
            self.live[:, None]
            & (self.status == _AWAKE)
            & (self.next_action == self.now[:, None])
        )
        if not due.any():
            return None
        learned = self._merge_due(due)
        self.builder = WaveBuilder(self.n, self.W, self.relational)
        sleep = self.kernel.step(self, due, learned)
        movers = due & ~sleep
        if sleep.any():
            self.status[sleep] = _ASLEEP
            self.next_action[sleep] = _NEVER
            self.sleep_counts[sleep] += 1
            self.last_sleep[sleep] = np.broadcast_to(
                self.now[:, None], sleep.shape
            )[sleep]
        if movers.any():
            nxt = self.now[:, None] + self.plan.delta
            self.next_action[movers] = nxt[movers]
        wave = self.builder.build(self.now, self.plan.delta, self.plan.d)
        self.builder = None
        if wave is not None:
            self.inflight.add(wave)
        return wave

    # ------------------------------------------------------------- driver

    def run(self) -> list[Outcome]:
        wave = self._local_pass()  # step 0: everyone acts
        self.plan.after_step(wave, self.status, self._crash)
        self.steps_sim += 1

        guard = 0
        while self.live.any():
            guard += 1
            if guard > self.max_steps + 70:
                raise SimulationError(
                    "batch kernel failed to converge (internal scheduling bug)"
                )
            awake_count = ((self.status == _AWAKE) & self.live[:, None]).sum(axis=1)
            inflight = self.inflight.to_correct(self.status)
            cand = np.where(self.status == _AWAKE, self.next_action, _NEVER).min(
                axis=1
            )
            cand = np.minimum(cand, self.inflight.next_arrival)
            cand = np.minimum(cand, self.plan.sched_next)

            quiesced = self.live & (awake_count == 0) & (inflight == 0)
            if quiesced.any():
                self.completed |= quiesced
                self.live &= ~quiesced
            exhausted = self.live & (cand >= _NEVER)
            if exhausted.any():
                self.completed |= exhausted
                self.live &= ~exhausted
            truncated = self.live & (cand > self.max_steps)
            if truncated.any():
                self.live &= ~truncated  # completed stays False; now frozen
            if not self.live.any():
                break

            self.now[self.live] = cand[self.live]
            self.plan.before_step(self.now, self.live, self.status, self._crash)
            self._deliver()
            wave = self._local_pass()
            self.plan.after_step(wave, self.status, self._crash)
            self.steps_sim[self.live] += 1

        return self._finalize()

    def _finalize(self) -> list[Outcome]:
        spec = self.spec
        outcomes = []
        for i, seed in enumerate(self.seeds):
            correct = self.status[i] != _CRASHED
            if self.completed[i]:
                sleeps = self.last_sleep[i][correct]
                if sleeps.size and (sleeps < 0).any():
                    raise SimulationError(
                        "batch quiescent run left a correct process "
                        "without a sleep record"
                    )
                t_end = int(sleeps.max()) if sleeps.size else 0
            else:
                t_end = int(self.now[i])
            correct_bits = np.packbits(correct)
            gathered = bool(self.completed[i]) and bool(
                ((self.K[i][correct] & correct_bits) == correct_bits).all()
            )
            crashed = tuple(int(p) for p in np.flatnonzero(~correct))
            outcomes.append(
                Outcome(
                    n=self.n,
                    f=self.f,
                    seed=int(seed),
                    protocol_name=spec.protocol,
                    adversary_name=spec.adversary,
                    completed=bool(self.completed[i]),
                    rumor_gathering_ok=gathered,
                    t_end=t_end,
                    max_local_step_time=int(self.plan.max_delta[i]),
                    max_delivery_time=int(self.plan.max_d[i]),
                    sent=self.sent[i].copy(),
                    received=self.received[i].copy(),
                    bytes_sent=self.bytes_sent[i].copy(),
                    crashed=crashed,
                    crash_steps={p: int(self.crash_step[i, p]) for p in crashed},
                    sleep_counts=self.sleep_counts[i].copy(),
                    wake_counts=self.wake_counts[i].copy(),
                    steps_simulated=int(self.steps_sim[i]),
                    strategy_label=self.plan.labels[i],
                )
            )
        return outcomes


def run_cell(
    spec0: TrialSpec,
    seeds: Sequence[int],
    *,
    record_draws: bool = False,
) -> list[Outcome] | tuple[list[Outcome], ReplayPlane]:
    """Simulate every seed of *spec0*'s cell on the vectorized engine.

    With ``record_draws`` the replay plane logs every draw and is
    returned alongside the outcomes (draw-order property tests).
    """
    cell = _CellRun(spec0, seeds, record_draws)
    outcomes = cell.run()
    if record_draws:
        return outcomes, cell.plane
    return outcomes
