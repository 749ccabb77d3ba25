"""Waves and the generic engine's arrival-indexed in-flight store.

One *wave* holds every message decided in one local-steps pass of one
visited step, in COO form — parallel arrays of (trial, sender,
receiver, kind, snapshot-uid) plus the per-message arrival step
``now + delta[t, sender] + d[t, sender]`` (both timings read at
decision time, exactly like the scalar ``_send_sink`` → ``Network.send``
chain; for every batchable adversary they are constant after setup).
Entry order within a wave is the scalar send order — trials ascending,
then pid ascending within the step's due set, then each process's
own send order (the pull family emits answers, pulls and pushes as
three category blocks; see ``PullKernel``) — which Strategy 2.k.0's
budget-bounded crash scan walks right after the pass.

:class:`WaveBuilder` takes whole arrays (``add_snap_rows`` +
``add_block``): one fancy-indexed copy of every sender's knowledge
row, one extend of the COO columns, so the per-message cost is the
protocol's RNG draw, not a Python call chain. Payload snapshots are
shared per sender within a pass: a sender's knowledge cannot change
during the pass (merges happen at drain, before the kernels act), so
SEARS's fanout of ``~sqrt(N) log N`` messages per sender stores one
row, mirroring the scalar snapshot-on-send cache.

:class:`InFlight` holds the undelivered messages, indexed by
``(trial, arrival step)`` like the scalar network's arrival buckets.
A bucket lists wave slices in wave-creation order, each slice in entry
order, so popping it yields the scalar bucket order — which the pull
requesters' answer queues observe. A per-trial min-heap of booked
arrival steps gives each trial's next arrival without scanning, and
per-(trial, receiver) pending counts make "in flight to a correct
receiver" one masked sum. Messages to a receiver that crashed while
they travelled are dropped at pop time but still pull the clock to
their arrival step, exactly like the scalar buckets.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["KIND_GOSSIP", "KIND_RELATION", "KIND_PULL", "Wave", "WaveBuilder", "InFlight"]

#: Payload kinds: a ``G`` snapshot (W bytes), a ``(G, I)`` snapshot
#: (W + N*W bytes), a pull-request marker (1 byte).
KIND_GOSSIP, KIND_RELATION, KIND_PULL = 0, 1, 2

_CRASHED = 2  # mirrors the engine's status code
_NEVER = 2**62


class Wave:
    """One decision step's sends, in scalar send order."""

    __slots__ = ("ti", "si", "ri", "kind", "uid", "arrive", "snap_g", "snap_i")

    def __init__(self, ti, si, ri, kind, uid, arrive, snap_g, snap_i):
        self.ti = ti  # (U,) trial index
        self.si = si  # (U,) sender pid
        self.ri = ri  # (U,) receiver pid
        self.kind = kind  # (U,) payload kind
        self.uid = uid  # (U,) snapshot row (0 for pulls)
        self.arrive = arrive  # (U,) absolute arrival step
        self.snap_g = snap_g  # (S, W) sender G snapshots
        self.snap_i = snap_i  # (S, N, W) sender I snapshots, or None


class WaveBuilder:
    """Collects one pass's send blocks; freezes them into a :class:`Wave`."""

    __slots__ = ("n", "W", "relational", "_chunks", "_snap_g", "_snap_i", "_snap_count")

    def __init__(self, n: int, W: int, relational: bool):
        self.n = n
        self.W = W
        self.relational = relational
        self._chunks: list[tuple] = []
        self._snap_g: list[np.ndarray] = []
        self._snap_i: list[np.ndarray] = []
        self._snap_count = 0

    def add_snap_rows(self, rows_g: np.ndarray, rows_i: np.ndarray | None) -> int:
        """Register a (S, W) block of sender snapshots; return base uid."""
        base = self._snap_count
        self._snap_count += rows_g.shape[0]
        self._snap_g.append(rows_g)
        if self.relational:
            self._snap_i.append(rows_i)
        return base

    def add_block(self, ti, si, ri, kind: int, uid) -> None:
        """Append a block of messages (parallel arrays, one kind)."""
        self._chunks.append(
            (ti, si, ri, np.full(ti.shape[0], kind, dtype=np.int8), uid)
        )

    def build(self, now: np.ndarray, delta: np.ndarray, d: np.ndarray) -> Wave | None:
        """Freeze into a Wave (None when nothing travels this pass)."""
        if not self._chunks:
            return None
        ti, si, ri, kind, uid = (np.concatenate(col) for col in zip(*self._chunks))
        arrive = now[ti] + delta[ti, si] + d[ti, si]
        snap_g = (
            np.concatenate(self._snap_g)
            if self._snap_g
            else np.zeros((0, self.W), dtype=np.uint8)
        )
        snap_i = None
        if self.relational:
            snap_i = (
                np.concatenate(self._snap_i)
                if self._snap_i
                else np.zeros((0, self.n, self.W), dtype=np.uint8)
            )
        return Wave(ti, si, ri, kind, uid, arrive, snap_g, snap_i)


def _ranges(starts: list[int], stops: list[int]) -> np.ndarray:
    """Concatenated ``arange(s, e)`` over the slices."""
    s = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(stops, dtype=np.int64) - s
    return np.repeat(s - (np.cumsum(lens) - lens), lens) + np.arange(int(lens.sum()))


class InFlight:
    """Undelivered messages of one cell, indexed by (trial, arrival step)."""

    def __init__(self, T: int, n: int):
        self.T, self.n = T, n
        #: (trial, arrival step) -> [(wave seq, wave, start, stop)] in
        #: creation order; each wave is stored sorted by (trial, arrival)
        self._buckets: dict[tuple[int, int], list[tuple]] = {}
        self._heaps: list[list[int]] = [[] for _ in range(T)]
        self._seq = 0
        #: per-trial earliest booked arrival step (_NEVER when none)
        self.next_arrival = np.full(T, _NEVER, dtype=np.int64)
        #: per-(trial, receiver) undelivered message counts
        self.pending = np.zeros((T, n), dtype=np.int64)

    def add(self, wave: Wave) -> None:
        """Book every message of *wave* into its arrival bucket."""
        T, n = self.T, self.n
        self.pending += np.bincount(
            wave.ti * n + wave.ri, minlength=T * n
        ).reshape(T, n)
        lo = int(wave.arrive.min())
        key = wave.ti * (int(wave.arrive.max()) - lo + 1) + (wave.arrive - lo)
        if (key[1:] < key[:-1]).any():  # stable: entry order within a bucket
            order = np.argsort(key, kind="stable")
            key = key[order]
            wave = Wave(
                wave.ti[order], wave.si[order], wave.ri[order], wave.kind[order],
                wave.uid[order], wave.arrive[order], wave.snap_g, wave.snap_i,
            )
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        stops = np.append(starts[1:], key.size)
        gt, ga = wave.ti[starts], wave.arrive[starts]
        np.minimum.at(self.next_arrival, gt, ga)
        seq, self._seq = self._seq, self._seq + 1
        buckets, heaps = self._buckets, self._heaps
        for t, a, s, e in zip(gt.tolist(), ga.tolist(), starts.tolist(), stops.tolist()):
            bucket = buckets.get((t, a))
            if bucket is None:
                bucket = buckets[(t, a)] = []
                heapq.heappush(heaps[t], a)
            bucket.append((seq, wave, s, e))

    def to_correct(self, status: np.ndarray) -> np.ndarray:
        """Per-trial count of messages still travelling to a correct process."""
        return np.where(status != _CRASHED, self.pending, 0).sum(axis=1)

    def pop_due(self, now: np.ndarray, live: np.ndarray, status: np.ndarray):
        """Pop every bucket arriving at a live trial's *now*.

        Returns None, or ``(ti, si, ri, gossip, rows_g, rows_i)``: the
        messages to correct receivers (crashed ones drop theirs here),
        a mask of those carrying a snapshot (not a pull request), and
        those snapshots' G rows and — relational — I blocks (None when
        no snapshot arrived). Gathering goes wave by wave in creation
        order, so each trial's messages keep their bucket order; order
        across trials is unobservable (trials share no state).
        """
        due = np.flatnonzero(live & (self.next_arrival == now))
        if due.size == 0:
            return None
        heaps, nxt = self._heaps, self.next_arrival
        slices: dict[int, tuple[Wave, list[int], list[int]]] = {}
        for t in due.tolist():
            heap = heaps[t]
            a = heapq.heappop(heap)
            nxt[t] = heap[0] if heap else _NEVER
            for seq, wave, s, e in self._buckets.pop((t, a)):
                _, starts, stops = slices.setdefault(seq, (wave, [], []))
                starts.append(s)
                stops.append(e)
        n = self.n
        popped, cols, rows_g, rows_i = [], [], [], []
        for seq in sorted(slices):
            wave, starts, stops = slices[seq]
            idx = _ranges(starts, stops)
            ti, ri = wave.ti[idx], wave.ri[idx]
            popped.append(ti * n + ri)
            keep = status[ti, ri] != _CRASHED
            if not keep.all():
                idx, ti, ri = idx[keep], ti[keep], ri[keep]
            gossip = wave.kind[idx] != KIND_PULL
            cols.append((ti, wave.si[idx], ri, gossip))
            uid = wave.uid[idx][gossip]
            if uid.size:
                rows_g.append(wave.snap_g[uid])
                if wave.snap_i is not None:
                    rows_i.append(wave.snap_i[uid])
        self.pending -= np.bincount(
            np.concatenate(popped), minlength=self.T * n
        ).reshape(self.T, n)
        ti, si, ri, gossip = (np.concatenate(c) for c in zip(*cols))
        if ti.size == 0:
            return None
        return (
            ti,
            si,
            ri,
            gossip,
            np.concatenate(rows_g) if rows_g else None,
            np.concatenate(rows_i) if rows_i else None,
        )
