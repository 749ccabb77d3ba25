"""The repository benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload fig3-cold --seed 1 --seconds 25 --trace 0

Run from a checkout: the program is imported from ``src/`` next to
this directory, nothing is installed. Workloads (``workloads.py``):

- ``fig3-cold``   Figure 3 panels 3a-3c in one cold Campaign (batch engine).
- ``det-cold``    flood / round-robin at large N (the legacy batch tier).
- ``topo-scalar`` sweeps only the scalar engine runs, on a worker pool.
- ``warm-replay`` a closed loop of all-hit panel requests, alternating a
  ``repro-ugf serve`` daemon (unix socket) and a fresh local Campaign
  (run by hand; ``BENCHMARK.json`` lists the other three, see README).

``--trace 0`` sets the workload up several times (``setup_s`` is the
import time plus the median set-up), then repeats the job for
``--seconds`` and reports medians. Cold workloads also re-run their
first job warm, between and after the jobs, through the daemon and
locally, for the request-latency metrics. ``--trace 1`` runs the job
once untraced and once with :mod:`tracing` wrapping every layer's
public calls (on cold workloads each job followed by one warm re-run),
and reports the per-layer metrics, an ``unattributed`` remainder and
the tracing overhead.

Every run checks each outcome against ``digests.json`` (see
``gen_digests.py``); a mismatch counts the trial as failed. The last
stdout line is the result JSON; a fuller record (environment,
digests, sample counts) goes to ``.perfbench-out/``, which
``compare.py`` reads.
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = pathlib.Path(".perfbench-work")
OUT = pathlib.Path(".perfbench-out")

#: Set-ups per run; setup_s reports their median.
SETUP_REPS = 3
#: Requests per path (daemon / local) before a run may end: a p90 with
#: at least ten samples beyond it, and half again, because short slow
#: spells of a shared host otherwise swing the p90 from run to run.
MIN_REQUESTS = 150
#: CPUs this process may run on (``nproc``): pool size and daemon count
#: stay within it.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Layers timed by the traced run, in report order.
SPAN_LAYERS = (
    "campaign.run_trials",
    "campaign.trial_key",
    "campaign.why_ineligible",
    "store.load",
    "store.get",
    "store.put_many",
    "pool.iter_execute",
    "batch.run_batch",
    "batch.run_cell",
    "batch.run_legacy_cell",
    "scalar.run_one",
    "sim.run",
    "sim.send",
    "sim.deliver_due",
    "protocols.on_local_step",
    "core.before_step",
    "core.after_step",
    "wire.to_wire",
    "wire.from_wire",
    "service.submit",
    "service.connect",
    "experiments.aggregate_sweep",
)
#: Work counts the traced run adds to the span totals: (metric, layer
#: whose first argument's length is counted).
SIZED_LAYERS = (
    ("campaign.run_trials.trials", "campaign.run_trials"),
    ("store.put_many.records", "store.put_many"),
    ("batch.run_batch.trials", "batch.run_batch"),
    ("service.submit.trials", "service.submit"),
)
#: Daemon lifetime counters (``ServiceClient.stats``) reported as their
#: change over the traced job.
DAEMON_COUNTERS = ("requests", "trials", "hits", "computed")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    names = []
    for layer in SPAN_LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.s", "s"), (f"{layer}.self_s", "s")]
    names += [(metric, "count") for metric, _ in SIZED_LAYERS]
    names += [
        ("store.bytes", "bytes"),
        ("pool.trials", "count"),
        ("pool.compute_s", "s"),
        ("pool.overhead_s", "s"),
    ]
    names += [(f"daemon.{c}", "count") for c in DAEMON_COUNTERS]
    names += [
        ("unattributed.s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return names


#: End-to-end metrics (``--trace 0``) and their units, in report order.
#: The request latencies' p50 is not among them. On a shared 2-vCPU
#: KVM guest the speed alternates, for seconds to minutes at a time,
#: between an uncontended level and one 1.5-1.8x slower; a warm
#: request's median sits between the two and follows the share of the
#: run spent contended (over a 10-minute closed loop, the p50 of any
#: 20-60 s of requests spread 0.23-0.31 of its median, the p90
#: 0.09-0.10). The p50 is printed and kept in the record
#: (``req_p50_ms``).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("svc_req_p90_ms", "ms"),
    ("local_req_p90_ms", "ms"),
)


# -- helpers -------------------------------------------------------------------


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (Linux: KiB).

    The kernel reports a child's peak only once it has been reaped, so
    call this after every pool worker and daemon has been stopped.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment(seed: int) -> dict:
    import numpy

    from repro.campaign.keys import KEY_VERSION
    from repro.sim.outcome import WIRE_VERSION

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None  # a plain checkout is not a git repository
    import hashlib

    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    cpu = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "host": {
            "nproc": NPROC,
            "machine": platform.machine(),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest(),
        "wire_version": WIRE_VERSION,
        "key_version": KEY_VERSION,
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


# -- the daemon ----------------------------------------------------------------


class Daemon:
    """A ``repro-ugf serve`` subprocess on a unix socket under *root*."""

    def __init__(self, root: pathlib.Path, store_dir: pathlib.Path) -> None:
        from repro.service import ServiceAddress

        self.sock = root / "d.sock"  # relative: AF_UNIX paths are short
        self.store_dir = store_dir
        self.address = ServiceAddress(scheme="unix", path=str(self.sock))
        self.log = root / "daemon.log"
        self.proc: subprocess.Popen | None = None

    def start(self) -> "Daemon":
        from repro.service import ServiceClient, ServiceError

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--unix", str(self.sock),
                 "--cache-dir", str(self.store_dir), "--workers", "1",
                 "--idle-timeout", "0"],
                env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log,
            )
        deadline = perf_counter() + 60
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited: {self.log.read_text()[-500:]}")
            if self.sock.exists():
                client = ServiceClient(self.address, timeout=10, connect_timeout=2)
                try:
                    if client.connect().ping():
                        return self
                except (ServiceError, OSError):
                    pass
                finally:
                    client.close()
            import time

            time.sleep(0.02)
        raise RuntimeError("daemon did not come up within 60s")

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(self.address, timeout=120)

    def stats(self) -> dict:
        with self.client() as client:
            return client.stats()["counters"]

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


# -- jobs ----------------------------------------------------------------------


@dataclass
class Job:
    """What one run of a workload's job produced."""

    wall_s: float
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    #: Per-trial wire digests in spec order (None where no outcome).
    digests: list = field(default_factory=list)
    latencies: dict = field(default_factory=lambda: {"service": [], "local": []})
    store_bytes: int = 0


def shared_pool(workers: int):
    """A WorkerPool kept warm across the campaigns of a run.

    Each timed job builds a fresh Campaign (empty memo, empty store) and
    hands it this pool, so spawning workers and ``_warm_worker`` are
    paid once, in set-up. ``close`` is the campaign's and does nothing;
    ``shutdown`` stops the workers.
    """
    from repro.campaign import WorkerPool

    class SharedPool(WorkerPool):
        def close(self) -> None:  # the run owns the workers
            pass

        def shutdown(self) -> None:
            WorkerPool.close(self)

    return SharedPool(workers)


class Bench:
    """One workload's set-up, job and teardown."""

    def __init__(self, plan, work: pathlib.Path, table: dict) -> None:
        self.plan = plan
        self.work = work
        self.table = table
        self.tracer = None
        self.daemon: Daemon | None = None
        self._n = 0

    def fresh_dir(self, stem: str) -> pathlib.Path:
        self._n += 1
        path = self.work / f"{stem}{self._n}"
        path.mkdir(parents=True)
        return path

    def check(self, job: Job, campaign, trials) -> None:
        """Check *campaign*'s outcomes for *trials* against the committed
        digests. A trial counts as failed, once, if it has no outcome,
        a mismatched digest, or executes here instead of coming from
        the job's memo: a campaign does not memoize failures, so a trial
        that failed in the job, or that the job never reached, runs again
        in this untimed check."""
        import workloads

        if self.tracer is not None:
            self.tracer.suspended = True
        try:
            results = campaign.run_trials(trials)
        finally:
            if self.tracer is not None:
                self.tracer.suspended = False
        got = [workloads.wire_digest(r.outcome) if r.outcome is not None else None
               for r in results]
        expected = workloads.expected_digests(trials, self.table)
        mismatched = [d is not None and d != e for d, e in zip(got, expected)]
        job.attempted += len(trials)
        job.digests += got
        job.mismatched += sum(mismatched)
        job.failed += sum(d is None or bad or not r.cached
                          for d, bad, r in zip(got, mismatched, results))

    def warm_request(self, job: Job, request, via: str, store_dir) -> None:
        """One warm request, as a fresh CLI command makes it: a new
        ServiceCampaign (``--cache-url``) or a new local Campaign on
        the store. A trial that executes instead of hitting the cache
        counts as failed."""
        from repro.campaign import Campaign
        from repro.errors import CampaignError
        from repro.service import ServiceCampaign

        t0 = perf_counter()
        if via == "service":
            campaign = ServiceCampaign(self.daemon.address, timeout=60, workers=0)
        else:
            campaign = Campaign(cache_dir=store_dir, workers=0)
        try:
            try:
                for sweep in request.sweeps:
                    campaign.run_sweep(sweep)
            except CampaignError:
                pass  # failed trials run again, and count, in check()
            job.latencies[via].append(perf_counter() - t0)
            job.failed += campaign.stats.executed  # executed, not hit
            self.check(job, campaign, request.trials())
        finally:
            campaign.close()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


class ColdBench(Bench):
    """fig3-cold / det-cold / topo-scalar: each job in a fresh Campaign
    with an empty cache directory."""

    def __init__(self, plan, work, table, *, workers: int) -> None:
        super().__init__(plan, work, table)
        self.workers = workers
        self.shared = None  # shared_pool() when workers > 1
        self.last = None
        self.warm_store: pathlib.Path | None = None
        self.warm_plan = None
        self.warm: Job | None = None  # the warm requests' samples

    def setup(self) -> None:
        import workloads

        if self.workers > 1:
            if self.shared is not None:
                self.shared.shutdown()
            self.shared = shared_pool(self.workers)
        # Untimed warm-up pass: the job's cells at their smallest N,
        # two seeds, so numpy, the kernels, the eligibility memo and
        # (topo-scalar) every pool worker are set up.
        size = workloads.Size(self.plan.size.n_values[:1], 2)
        warm = workloads.make_plan(self.plan.workload, self.plan.seed, size)
        self.verify(self.job(warm))

    def job(self, plan=None, *, workers: int | None = None, metrics=None) -> Job:
        from repro.campaign import Campaign
        from repro.errors import CampaignError
        from repro.experiments.figure3 import run_figure3_panel

        self.discard()
        plan = self.plan if plan is None else plan
        workers = self.workers if workers is None else workers
        cache = self.fresh_dir("cold")
        t0 = perf_counter()
        campaign = Campaign(cache_dir=cache, workers=workers, backend="auto", metrics=metrics)
        if self.shared is not None and workers > 1:
            self.shared.metrics = campaign.metrics  # as Campaign would set it
            campaign.pool = self.shared
        for request in plan.requests:
            try:
                if request.panel is not None:
                    first = request.sweeps[0]
                    run_figure3_panel(
                        request.panel, n_values=first.n_values,
                        seeds=first.seeds, campaign=campaign,
                    )
                else:
                    for sweep in request.sweeps:
                        campaign.run_sweep(sweep)
            except CampaignError:
                pass  # failed and skipped trials run again, and count, in verify()
        job = Job(wall_s=perf_counter() - t0, store_bytes=dir_bytes(cache))
        self.last = (campaign, plan, cache)
        return job

    def verify(self, job: Job) -> None:
        """Check the last job's outcomes (its campaign stays open)."""
        campaign, plan, _cache = self.last
        self.check(job, campaign, plan.trials())

    def discard(self) -> None:
        """Close the last job's campaign and delete its cache."""
        if self.last is not None:
            campaign, _plan, cache = self.last
            self.last = None
            campaign.close()
            shutil.rmtree(cache)

    def save_warm_store(self) -> None:
        """Write the last job's outcomes to a sharded store and start
        the daemon on it, for the warm requests (untimed)."""
        from repro.campaign import TrialStore, spec_fingerprint, trial_key

        campaign, plan, _cache = self.last
        self.warm_plan = plan
        self.warm_store = self.fresh_dir("warm")
        with TrialStore(self.warm_store, backend="sharded") as store:
            store.put_many(
                (trial_key(r.spec), spec_fingerprint(r.spec), r.outcome)
                for r in campaign.run_trials(plan.trials()) if r.outcome is not None
            )
        self.daemon = Daemon(self.work, self.warm_store).start()
        self.warm = Job(wall_s=0.0)

    def warm_until(self, count: int) -> None:
        """Re-run requests of the saved job warm, as a warm CLI command
        would, each down both paths in turn (the daemon, then a local
        campaign), until each path has *count* samples."""
        requests = self.warm_plan.warm_requests()
        while (done := len(self.warm.latencies["service"])) < count:
            for via in ("service", "local"):
                self.warm_request(self.warm, requests[done % len(requests)], via, self.warm_store)

    def warm_pass(self) -> float:
        """Re-run the saved job warm once down each path (the traced
        run's read side); returns the requests' summed latency."""
        latencies = self.warm.latencies
        done = len(latencies["service"])
        self.warm_until(done + len(self.warm_plan.warm_requests()))
        return sum(latencies["service"][done:]) + sum(latencies["local"][done:])

    def close(self) -> None:
        super().close()
        self.discard()
        if self.shared is not None:
            self.shared.shutdown()
            self.shared = None


class WarmReplayBench(Bench):
    """warm-replay: a closed loop of all-hit requests against a store
    pre-filled through the daemon."""

    def __init__(self, plan, work, table) -> None:
        super().__init__(plan, work, table)
        self.store_dir: pathlib.Path | None = None
        self.prefilled = 0

    def setup(self) -> None:
        import workloads

        self.close()
        self.store_dir = self.fresh_dir("store")
        self.daemon = Daemon(self.work, self.store_dir).start()
        prefill = workloads.pool_trials("warm-replay", self.plan.size.n_values)
        with self.daemon.client() as client:
            for i in range(0, len(prefill), 512):
                replies = client.submit(prefill[i : i + 512])
                bad = [r for r in replies if r.wire is None]
                if bad:
                    raise RuntimeError(f"prefill failed: {bad[0].error}")
        self.prefilled = len(prefill)
        # Untimed warm-up pass: a request down each path.
        size = workloads.Size(self.plan.size.n_values, self.plan.size.seeds, requests=2)
        self.verify(self.job(workloads.make_plan("warm-replay", self.plan.seed, size)))

    def job(self, plan=None, **_ignored) -> Job:
        """The plan's requests, back to back. wall_s is the sum of their
        latencies: the checks between requests are not the job's."""
        plan = self.plan if plan is None else plan
        job = Job(wall_s=0.0)
        for request in plan.requests:
            self.warm_request(job, request, request.via, self.store_dir)
        job.wall_s = sum(job.latencies["service"]) + sum(job.latencies["local"])
        job.store_bytes = dir_bytes(self.store_dir)
        return job

    def verify(self, job: Job) -> None:
        """Requests are checked as they complete."""


def make_bench(plan, work: pathlib.Path, table: dict) -> Bench:
    if plan.workload == "warm-replay":
        return WarmReplayBench(plan, work, table)
    return ColdBench(plan, work, table, workers=NPROC)


# -- the two kinds of run --------------------------------------------------------


def timed_run(bench: Bench, seconds: float, import_s: float) -> tuple[dict, dict]:
    """Set up SETUP_REPS times, then run jobs for about *seconds*; each
    job draws its own trial seeds (``workloads.make_plan(job=k)``).

    Cold workloads re-run their first job warm, down both request
    paths, for the latency metrics: after each job, as many of the
    MIN_REQUESTS as the jobs so far are a share of *seconds*, the rest
    after the last job. A slow spell of a shared host then lands on a
    share of the requests, not on a block of them.
    """
    import workloads

    setups = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        bench.setup()
        setups.append(perf_counter() - t0)
    cold = isinstance(bench, ColdBench)
    base = bench.plan
    jobs: list[Job] = []
    rounds: list[float] = []  # each job with its check
    while True:
        plan = workloads.make_plan(base.workload, base.seed, base.size, job=len(jobs))
        t0 = perf_counter()
        job = bench.job(plan)
        bench.verify(job)
        rounds.append(perf_counter() - t0)
        jobs.append(job)
        if cold:
            if len(jobs) == 1:
                bench.save_warm_store()
            bench.warm_until(math.ceil(MIN_REQUESTS * min(1.0, sum(rounds) / seconds)))
        latencies = {via: [x for j in jobs for x in j.latencies[via]] for via in ("service", "local")}
        enough = cold or min(len(v) for v in latencies.values()) >= MIN_REQUESTS
        # Stop before a job that would overrun the measured seconds
        # (warm-replay runs on until it has its latency samples).
        if sum(rounds) + statistics.median(rounds) > seconds and enough:
            break
    warm = None
    if cold:
        warm = bench.warm
        bench.warm_until(MIN_REQUESTS)
        latencies = warm.latencies
    # Stop the pool workers and the daemon, so that their peaks count.
    bench.close()
    walls = [j.wall_s for j in jobs]
    trials = jobs[0].attempted
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": statistics.median(walls),
        "trials_per_s": trials / statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
        "svc_req_p90_ms": 1e3 * p90(latencies["service"]),
        "local_req_p90_ms": 1e3 * p90(latencies["local"]),
    }
    counted = jobs + ([warm] if warm is not None else [])
    detail = {
        "import_s": import_s,
        "setup_reps_s": setups,
        "job_walls_s": walls,
        "jobs": len(jobs),
        "trials_per_job": trials,
        "store_bytes": jobs[-1].store_bytes,
        "samples": {via: len(v) for via, v in latencies.items()},
        "req_p50_ms": {via: 1e3 * statistics.median(v) for via, v in latencies.items()},
        "attempted": sum(j.attempted for j in counted),
        "failed": sum(j.failed for j in counted),
        "mismatched": sum(j.mismatched for j in counted),
        "digest": _fold(jobs[0]),
    }
    if isinstance(bench, WarmReplayBench):
        detail["prefilled_trials"] = bench.prefilled
    return metrics, detail


def _fold(job: Job) -> str:
    import workloads

    return workloads.fold(d or "-" for d in job.digests)


def traced_run(bench: Bench, out_spans: pathlib.Path, run_id: str) -> tuple[dict, dict]:
    """One untraced job, then the same job traced; per-layer metrics.

    On the cold workloads each job is followed by a warm re-run of the
    first job down both request paths, as in the timed run, so the
    read side (store, wire decode, service) is traced too; its latency
    counts in the job's wall time.
    """
    import tracing

    bench.setup()
    workload = bench.plan.workload
    pool = {"trials": 0, "compute_s": 0.0, "iter_s": 0.0}
    inline = workload == "topo-scalar" and bench.workers > 1
    if inline:
        # Pool attribution from an untraced pool run (only the pool's
        # iterator is wrapped; metrics on, so each ExecutionResult
        # carries its worker-side seconds) ...
        pool_tracer = tracing.install(workload, run_id, pool_only=True)
        try:
            job = bench.job(metrics=True)
        finally:
            pool_tracer.uninstall()
        bench.verify(job)
        pool = {
            "trials": pool_tracer.pool_trials,
            "compute_s": pool_tracer.pool_compute_s,
            "iter_s": pool_tracer.layer("pool.iter_execute")[1],
        }
    # ... the traced job runs inline there, so that the scalar engine's
    # layers execute in this process where the wrappers are.
    workers = 0 if inline else None
    untraced = bench.job(workers=workers)
    bench.verify(untraced)
    cold = isinstance(bench, ColdBench)
    if cold:
        bench.save_warm_store()
        untraced.wall_s += bench.warm_pass()
    daemon = {c: 0 for c in DAEMON_COUNTERS}
    before = bench.daemon.stats() if bench.daemon is not None else None
    tracer = tracing.install(workload, run_id)
    bench.tracer = tracer
    try:
        traced = bench.job(workers=workers)
        if cold:
            traced.wall_s += bench.warm_pass()
    finally:
        tracer.uninstall()
        bench.tracer = None
    bench.verify(traced)
    if before is not None:
        after = bench.daemon.stats()
        daemon = {c: after.get(c, 0) - before.get(c, 0) for c in DAEMON_COUNTERS}

    metrics: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        calls, busy, self_s = tracer.layer(layer)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.s"] = busy
        metrics[f"{layer}.self_s"] = self_s
    for metric, layer in SIZED_LAYERS:
        metrics[metric] = tracer.sizes.get(layer, 0)
    metrics["store.bytes"] = traced.store_bytes
    metrics["pool.trials"] = pool["trials"]
    metrics["pool.compute_s"] = pool["compute_s"]
    metrics["pool.overhead_s"] = (
        pool["iter_s"] - pool["compute_s"] / bench.workers if pool["trials"] else 0.0
    )
    for c in DAEMON_COUNTERS:
        metrics[f"daemon.{c}"] = daemon[c]
    metrics["unattributed.s"] = traced.wall_s - tracer.attributed_s()
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s

    with open(out_spans, "a") as fh:
        spans = tracer.write_spans(fh)
    counted = [untraced, traced] + ([bench.warm] if cold else [])
    detail = {
        "attempted": sum(j.attempted for j in counted),
        "failed": sum(j.failed for j in counted),
        "mismatched": sum(j.mismatched for j in counted),
        "digest": _fold(traced),
        "digests_agree": _fold(traced) == _fold(untraced),
        "spans_written": spans,
        "spans_file": str(out_spans),
        "inline_traced_job": inline,
    }
    return metrics, detail


def layer_table(workload: str, metrics: dict) -> str:
    """Per-layer count, busy s, self s and share of the traced wall_s."""
    wall = metrics["trace.wall_s"]
    lines = [
        f"layers of {workload} (traced wall {wall:.3f}s, untraced "
        f"{metrics['trace.untraced_wall_s']:.3f}s, overhead "
        f"{metrics['trace.overhead_s']:+.3f}s)",
        f"  {'layer':<28} {'count':>9} {'busy_s':>9} {'self_s':>9} {'self%':>6}",
    ]
    for layer in SPAN_LAYERS:
        calls = metrics[f"{layer}.calls"]
        busy = metrics[f"{layer}.s"]
        self_s = metrics[f"{layer}.self_s"]
        lines.append(
            f"  {layer:<28} {calls:>9d} {busy:>9.3f} {self_s:>9.3f} "
            f"{100 * self_s / wall:>5.1f}%"
        )
    un = metrics["unattributed.s"]
    lines.append(f"  {'unattributed':<28} {'':>9} {'':>9} {un:>9.3f} {100 * un / wall:>5.1f}%")
    return "\n".join(lines)


# -- entry point -------------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A SIGTERM unwinds like an error, so the daemon and pool workers
    # are stopped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    os.chdir(ROOT)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program at {SRC / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The imports a Figure-3 / sweep / --cache-url job needs: set-up time.
    import numpy  # noqa: F401

    import repro.backends.batch  # noqa: F401
    import repro.campaign  # noqa: F401
    import repro.experiments.figure3  # noqa: F401
    import repro.service  # noqa: F401
    import_s = perf_counter() - T0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    env = environment(args.seed)
    plan = workloads.make_plan(args.workload, args.seed)
    table = workloads.load_table()
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work = WORK / run_id
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    bench = make_bench(plan, work, table)
    try:
        if args.trace:
            metrics, detail = traced_run(bench, OUT / f"spans-{run_id}.jsonl", run_id)
        else:
            metrics, detail = timed_run(bench, args.seconds, import_s)
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    expected = workloads.fold(workloads.expected_digests(plan.trials(), table))
    detail["expected_digest"] = expected
    if detail["digest"] != expected or not detail.get("digests_agree", True):
        detail["failed"] = max(detail["failed"], 1)
    failed_frac = detail["failed"] / detail["attempted"]
    units = dict(per_layer_names() if args.trace else END_TO_END)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "run_id": run_id,
        "env": env,
        "metrics": metrics,
        "units": units,
        "failed_frac": failed_frac,
        **detail,
    }
    (OUT / f"result-{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={NPROC} load1={env['loadavg_1m']:.2f} src={env['src_sha256'][:12]}")
    if args.trace:
        print(layer_table(args.workload, metrics))
        print(f"spans: {detail['spans_written']} -> {detail['spans_file']}")
    else:
        for name, unit in END_TO_END:
            print(f"  {name:<18} {metrics[name]:>12.4f} {unit}")
        p50 = detail["req_p50_ms"]
        print(f"  request p50 (record only): svc {p50['service']:.4f} ms, "
              f"local {p50['local']:.4f} ms")
        print(f"  samples: {detail['jobs']} job(s) of {detail['trials_per_job']} trials, "
              f"requests {detail['samples']}; setup reps {detail['setup_reps_s']}"
              + (f"; store pre-filled with {detail['prefilled_trials']} trials"
                 if "prefilled_trials" in detail else ""))
    print(f"  failed_frac {failed_frac:.4f} ({detail['failed']}/{detail['attempted']}, "
          f"{detail['mismatched']} digest mismatch(es)); digest {detail['digest'][:16]} "
          f"expected {expected[:16]}")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
