"""The benchmark's own tests: seeded generators, the warm store, and a
tiny run of every workload against the committed digests.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pytest

import run
import tracing
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_deterministic_per_seed(workload):
    assert workloads.make_plan(workload, 7) == workloads.make_plan(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_specs_not_cell_mix(workload):
    a = workloads.make_plan(workload, 1)
    for other in (workloads.make_plan(workload, 2), workloads.make_plan(workload, 1, job=1)):
        assert a.trials() != other.trials()
        assert workloads.cell_mix(a) == workloads.cell_mix(other)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_poolable_trial_has_a_committed_digest(workload):
    table = workloads.load_table()
    trials = workloads.pool_trials(workload)
    assert len(workloads.expected_digests(trials, table)) == len(trials)


def test_warm_replay_hits_after_setup(tmp_path):
    plan = workloads.make_plan("warm-replay", 3, workloads.TINY["warm-replay"])
    bench = run.WarmReplayBench(plan, tmp_path, workloads.load_table())
    try:
        bench.setup()
        before = bench.daemon.stats()
        job = bench.job()
        after = bench.daemon.stats()
    finally:
        bench.close()
    assert job.failed == 0  # an executed (not hit) trial counts as failed
    assert after["computed"] == before["computed"]
    assert after["hits"] - before["hits"] == sum(
        len(r.trials()) for r in plan.requests if r.via == "service"
    )


def test_cold_warm_requests_serve_the_first_job(tmp_path):
    """The cold workloads' latency samples: a warm re-run of their first
    job over its store, every trial a hit, down both paths."""
    plan = workloads.make_plan("det-cold", 4, workloads.TINY["det-cold"])
    bench = run.make_bench(plan, tmp_path, workloads.load_table())
    try:
        bench.setup()
        bench.verify(bench.job())
        bench.save_warm_store()
        bench.warm_until(2)
        bench.warm_until(3)
        warm = bench.warm
    finally:
        bench.close()
    assert {via: len(v) for via, v in warm.latencies.items()} == {"service": 3, "local": 3}
    assert warm.failed == 0 and warm.attempted == 6 * len(plan.trials())


def _tiny_job(workload, seed, tmp_path):
    plan = workloads.make_plan(workload, seed, workloads.TINY[workload])
    table = workloads.load_table()
    bench = run.make_bench(plan, tmp_path, table)
    try:
        bench.setup()
        job = bench.job()
        bench.verify(job)
    finally:
        bench.close()
    expected = workloads.fold(workloads.expected_digests(plan.trials(), table))
    return job, expected


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct(workload, tmp_path):
    job, expected = _tiny_job(workload, 5, tmp_path)
    assert job.attempted > 0
    assert job.failed == 0 and job.mismatched == 0
    assert workloads.fold(job.digests) == expected


def test_wrong_outcome_counts_as_failed(tmp_path, monkeypatch):
    table = workloads.load_table()
    plan = workloads.make_plan("det-cold", 5, workloads.TINY["det-cold"])
    victim = workloads.cell_id(plan.trials()[0])
    table[victim] = ["0" * workloads.DIGEST_CHARS] * len(table[victim])
    bench = run.make_bench(plan, tmp_path, table)
    try:
        job = bench.job()
        bench.verify(job)
    finally:
        bench.close()
    wrong = sum(workloads.cell_id(t) == victim for t in plan.trials())
    assert job.mismatched == wrong and job.failed == wrong


def test_trial_executed_in_check_counts_as_failed(tmp_path):
    """A trial the job failed or never reached runs in the check: failed."""
    from repro.campaign import Campaign

    plan = workloads.make_plan("det-cold", 5, workloads.TINY["det-cold"])
    bench = run.make_bench(plan, tmp_path, workloads.load_table())
    job = run.Job(wall_s=0.0)
    trials = plan.trials()
    with Campaign(workers=0) as campaign:
        campaign.run_trials(trials[1:])
        bench.check(job, campaign, trials)
    assert job.mismatched == 0 and job.failed == 1


def test_peak_rss_counts_the_job_pool_workers(tmp_path, monkeypatch):
    """topo-scalar's peak_rss_mb includes a worker of the timed jobs' pool
    (set-up's warm-up pass runs N=10 only, so the ballast at N=20 can
    only come from a timed job)."""
    from repro.experiments import runner

    ballast_mb = 96
    real_run_trial = runner.run_trial

    def heavy_run_trial(spec, **kwargs):
        if spec.n == 20:
            ballast = b"\1" * (ballast_mb << 20)  # touches every page
            del ballast
        return real_run_trial(spec, **kwargs)

    monkeypatch.setattr(runner, "run_trial", heavy_run_trial)
    monkeypatch.setattr(run, "NPROC", 2)
    monkeypatch.setattr(run, "MIN_REQUESTS", 3)
    plan = workloads.make_plan("topo-scalar", 5, workloads.TINY["topo-scalar"])
    bench = run.make_bench(plan, tmp_path, workloads.load_table())
    try:
        metrics, detail = run.timed_run(bench, 0.01, 0.0)
    finally:
        bench.close()
    assert detail["failed"] == 0
    own_mb = run.resource.getrusage(run.resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert metrics["peak_rss_mb"] - own_mb >= ballast_mb


def test_tracer_self_time_and_layer_split(tmp_path):
    """The traced job's digest matches, and each layer sees only its work."""
    plan = workloads.make_plan("det-cold", 5, workloads.TINY["det-cold"])
    bench = run.make_bench(plan, tmp_path, workloads.load_table())
    try:
        bench.setup()
        tracer = tracing.install("det-cold", "test")
        bench.tracer = tracer
        try:
            job = bench.job()
        finally:
            tracer.uninstall()
            bench.tracer = None
        bench.verify(job)
    finally:
        bench.close()
    assert job.failed == 0
    assert tracer.layer("batch.run_legacy_cell")[0] == len(plan.requests) * len(plan.size.n_values)
    assert tracer.layer("batch.run_cell")[0] == 0
    assert tracer.layer("protocols.on_local_step")[0] == 0
    calls, busy, self_s = tracer.layer("campaign.run_trials")
    assert calls == len(plan.requests) and 0 < self_s < busy
    assert 0 < tracer.attributed_s() <= job.wall_s
    from repro.campaign.campaign import Campaign

    assert not hasattr(Campaign.run_trials, "__wrapped__")  # uninstalled


def test_cold_traced_run_traces_the_read_side(tmp_path):
    """A cold workload's traced jobs are each followed by a warm re-run
    down both paths: store reads, wire decode and the daemon show, and
    every warm trial is a hit."""
    plan = workloads.make_plan("det-cold", 6, workloads.TINY["det-cold"])
    bench = run.make_bench(plan, tmp_path, workloads.load_table())
    try:
        metrics, detail = run.traced_run(bench, tmp_path / "spans.jsonl", "test")
    finally:
        bench.close()
    assert detail["failed"] == 0 and detail["digests_agree"]
    assert metrics["daemon.hits"] == metrics["service.submit.trials"] > 0
    assert metrics["daemon.computed"] == 0
    assert metrics["store.get.calls"] > 0 and metrics["wire.from_wire.calls"] > 0
    assert metrics["batch.run_cell.calls"] == 0


def test_nested_and_suspended_spans():
    tracer = tracing.Tracer("w", "r")
    outer = tracer.enter("a")
    inner = tracer.enter("b")
    assert tracer.enter("b") is None  # re-entry of an open layer
    tracer.exit(None)
    tracer.exit(inner)
    tracer.exit(outer)
    tracer.suspended = True
    assert tracer.enter("a") is None
    a_calls, a_busy, a_self = tracer.layer("a")
    b_calls, b_busy, _ = tracer.layer("b")
    assert (a_calls, b_calls) == (1, 1)
    assert a_self == pytest.approx(a_busy - b_busy)
    assert tracer.attributed_s() == pytest.approx(a_busy)
