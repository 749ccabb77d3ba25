"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions each layer exposes, at the
place the caller looks them up (a class attribute, or the module
global a caller imported by name), and returns a :class:`Tracer`
holding per-layer call counts, busy time and self time. Nothing in
``src/`` is edited; :meth:`Tracer.uninstall` puts every original back.

A layer's *self* time is its span minus the time its child spans
cover; summed over every layer it is the time the job spent inside
any traced call, so ``wall - sum(self)`` is the ``unattributed``
remainder.

Spans of layers called once per trial or per simulation step (see
:data:`ROLLED_UP`) are not kept one by one: each is folded into its
nearest kept ancestor as a ``[calls, busy_s]`` entry, which keeps the
span file a few thousand lines instead of millions.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

#: Layers whose spans are folded into their parent's record.
ROLLED_UP = frozenset({
    "campaign.trial_key",
    "campaign.why_ineligible",
    "store.get",
    "wire.to_wire",
    "wire.from_wire",
    "sim.send",
    "sim.deliver_due",
    "protocols.on_local_step",
    "core.before_step",
    "core.after_step",
})


class Tracer:
    """Span stack and per-layer totals for one traced job."""

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        #: layer -> [calls, busy_s, self_s]
        self.totals: dict[str, list] = {}
        #: kept spans: [id, name, start, end, parent, rolled-up children]
        self.records: list[list] = []
        #: open spans: [name, t0, child_s, record or None, count the call]
        self._stack: list[list] = []
        self._active: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        #: sized layer -> total length of the first argument it was given
        self.sizes: dict[str, int] = {}
        #: WorkerPool results seen and the sum of their
        #: ExecutionResult.seconds (measured when metrics are on).
        self.pool_trials = 0
        self.pool_compute_s = 0.0
        #: While True every wrapper is a plain call (the benchmark's
        #: own correctness checks run through traced functions).
        self.suspended = False
        self.origin = perf_counter()

    # -- spans ---------------------------------------------------------------------

    def enter(self, name: str, count: bool = True):
        """Open a span; returns a token for :meth:`exit`, or None when
        *name* is already open (a layer calling itself through a
        subclass or a fallback is one span, not two)."""
        if self.suspended or name in self._active:
            return None
        self._active.add(name)
        record = None
        if name not in ROLLED_UP:
            parent = self._parent_record()
            record = [len(self.records), name, 0.0, 0.0,
                      parent[0] if parent is not None else None, {}]
            self.records.append(record)
        frame = [name, 0.0, 0.0, record, count]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame) -> None:
        t1 = perf_counter()
        if frame is None:
            return
        self._stack.pop()
        name, t0, child_s, record, count = frame
        self._active.discard(name)
        busy = t1 - t0
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        if count:
            tot[0] += 1
        tot[1] += busy
        tot[2] += busy - child_s
        if self._stack:
            self._stack[-1][2] += busy
        if record is not None:
            record[2] = t0 - self.origin
            record[3] = t1 - self.origin
        else:
            parent = self._parent_record()
            if parent is not None:
                entry = parent[5].setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += busy

    def _parent_record(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, name: str, fn, sized: bool = False, on_item=None):
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens while it is resumed: time each
            # resumption as a span, count the call once.

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = True
                while True:
                    frame = enter(name, count=first)
                    first = False
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_(frame)
                    if on_item is not None:
                        on_item(item)
                    yield item

            return gen_wrapper

        if sized:
            sizes = self.sizes
            sizes.setdefault(name, 0)

            @functools.wraps(fn)
            def sized_wrapper(self_, items, *args, **kwargs):
                frame = enter(name)
                if frame is not None and isinstance(items, (list, tuple)):
                    sizes[name] += len(items)
                try:
                    return fn(self_, items, *args, **kwargs)
                finally:
                    exit_(frame)

            return sized_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return wrapper

    def patch(self, owner, attr: str, name: str, *, sized: bool = False, on_item=None) -> None:
        """Replace ``owner.attr`` (defined on *owner* itself) by a traced
        wrapper; a classmethod stays a classmethod.
        *sized* methods also add the length of their first argument to
        :attr:`sizes`; *on_item* is called with each item a generator
        method yields."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__))
        else:
            wrapped = self._wrap(name, original, sized, on_item)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def patch_hierarchy(self, base, attr: str, name: str) -> None:
        """Trace *attr* on *base* and on every subclass that defines it."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.patch(cls, attr, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def layer(self, name: str) -> tuple[int, float, float]:
        calls, busy, self_s = self.totals.get(name, (0, 0.0, 0.0))
        return calls, busy, self_s

    def attributed_s(self) -> float:
        return sum(t[2] for t in self.totals.values())

    def write_spans(self, fh) -> int:
        """Append this job's spans to *fh* as JSON lines; returns the count."""
        for rid, name, start, end, parent, children in self.records:
            fh.write(json.dumps({
                "run": self.run_id,
                "workload": self.workload,
                "id": rid,
                "name": name,
                "start": round(start, 7),
                "end": round(end, 7),
                "parent": parent,
                "rolled_up": {k: [c, round(s, 7)] for k, (c, s) in children.items()},
            }) + "\n")
        return len(self.records)


def install(workload: str, run_id: str, *, pool_only: bool = False) -> Tracer:
    """Trace every layer's public entry points (or only the worker pool).

    Wrappers go where callers look the names up: ``repro.campaign.
    campaign`` imported ``trial_key`` by name, the campaign router
    re-imports ``why_ineligible`` from ``repro.backends.batch`` on each
    call, and ``BatchBackend.run_batch`` calls the ``run_cell`` /
    ``run_legacy_cell`` globals of that package.
    """
    import repro.backends.batch as batch
    import repro.campaign.campaign as campaign_mod
    import repro.experiments.runner as runner
    import repro.service.client as service_client
    from repro.backends.scalar import ScalarBackend
    from repro.campaign.pool import WorkerPool
    from repro.campaign.sharded import ShardedBackend
    from repro.campaign.store import JsonlBackend, TrialStore
    from repro.core.adversary import Adversary
    from repro.protocols.base import GossipProtocol
    from repro.protocols.registry import available_protocols
    from repro.service.client import ServiceCampaign, ServiceClient
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.sim.outcome import Outcome

    tracer = Tracer(workload, run_id)

    def count_pool_result(result) -> None:
        tracer.pool_trials += 1
        tracer.pool_compute_s += result.seconds or 0.0

    tracer.patch(WorkerPool, "iter_execute", "pool.iter_execute", on_item=count_pool_result)
    if pool_only:
        return tracer
    available_protocols()  # import every registry protocol module
    tracer.patch(campaign_mod.Campaign, "run_trials", "campaign.run_trials", sized=True)
    tracer.patch(ServiceCampaign, "run_trials", "campaign.run_trials", sized=True)
    tracer.patch(campaign_mod, "trial_key", "campaign.trial_key")
    tracer.patch(service_client, "trial_key", "campaign.trial_key")
    tracer.patch(batch, "why_ineligible", "campaign.why_ineligible")
    tracer.patch(JsonlBackend, "load", "store.load")
    tracer.patch(ShardedBackend, "load", "store.load")
    tracer.patch(TrialStore, "get", "store.get")
    tracer.patch(TrialStore, "put_many", "store.put_many", sized=True)
    tracer.patch(batch.BatchBackend, "run_batch", "batch.run_batch", sized=True)
    tracer.patch(batch, "run_cell", "batch.run_cell")
    tracer.patch(batch, "run_legacy_cell", "batch.run_legacy_cell")
    tracer.patch(ScalarBackend, "run_one", "scalar.run_one")
    tracer.patch(Simulator, "run", "sim.run")
    tracer.patch(Network, "send", "sim.send")
    tracer.patch(Network, "deliver_due", "sim.deliver_due")
    tracer.patch_hierarchy(GossipProtocol, "on_local_step", "protocols.on_local_step")
    tracer.patch_hierarchy(Adversary, "before_step", "core.before_step")
    tracer.patch_hierarchy(Adversary, "after_step", "core.after_step")
    tracer.patch(Outcome, "to_wire", "wire.to_wire")
    tracer.patch(Outcome, "from_wire", "wire.from_wire")
    tracer.patch(ServiceClient, "submit", "service.submit", sized=True)
    tracer.patch(ServiceClient, "connect", "service.connect")
    tracer.patch(runner, "aggregate_sweep", "experiments.aggregate_sweep")
    return tracer
