"""JobQueue + workers: specs, claims, heartbeats, preemption."""

import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import JobQueue, JobSpec, ResultStore
from repro.campaign.queue import (
    JOB_FORMAT,
    default_queue_dir,
    run_job,
    work_loop,
)
from repro.campaign.runner import CampaignProgress
from repro.core.serialization import dump_tagged

REPO = pathlib.Path(__file__).resolve().parents[2]


def spec(experiment="table2", **kwargs):
    return JobSpec(experiment=experiment, **kwargs)


class TestJobSpec:
    def test_json_round_trip(self):
        original = spec(full=True, seed=3, processes=2, chunk_bits=64,
                        modules=("a", "b"))
        back = JobSpec.from_json(original.to_json())
        assert back == original

    def test_wrong_format_tag_rejected(self):
        with pytest.raises(ValueError):
            JobSpec.from_json(dump_tagged("repro.other/1", spec()))

    def test_non_spec_payload_rejected(self):
        with pytest.raises(ValueError, match="not JobSpec"):
            JobSpec.from_json(dump_tagged(JOB_FORMAT, {"experiment": "x"}))

    def test_default_queue_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "qq"))
        assert default_queue_dir() == tmp_path / "qq"
        assert JobQueue().root == tmp_path / "qq"


class TestLifecycle:
    def test_submit_claim_finish(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(spec())
        assert queue.counts() == {"pending": 1, "claimed": 0,
                                  "done": 0, "failed": 0}
        loaded = queue.load("pending", job_id)
        assert loaded.experiment == "table2"
        assert loaded.submitted > 0

        claimed = queue.claim("w1")
        assert claimed is not None
        got_id, got_spec = claimed
        assert got_id == job_id and got_spec.experiment == "table2"
        assert queue.counts()["claimed"] == 1
        beat = queue.read_heartbeat(job_id)
        assert beat["worker"] == "w1" and beat["note"] == "claimed"

        queue.finish(job_id, {"experiment": "table2", "executed": 2})
        assert queue.counts() == {"pending": 0, "claimed": 0,
                                  "done": 1, "failed": 0}
        outcome = queue.outcome(job_id)
        assert outcome["state"] == "done" and outcome["executed"] == 2
        assert queue.read_heartbeat(job_id) is None

    def test_claim_empty_queue(self, tmp_path):
        assert JobQueue(tmp_path).claim("w") is None

    def test_claims_oldest_first(self, tmp_path):
        queue = JobQueue(tmp_path)
        first = queue.submit(spec("table2"))
        time.sleep(0.002)  # distinct millisecond timestamps
        second = queue.submit(spec("fig6"))
        assert first < second  # ids sort oldest-first
        assert queue.claim("w")[0] == first
        assert queue.claim("w")[0] == second

    def test_fail_records_error(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(spec())
        queue.claim("w")
        queue.fail(job_id, {"experiment": "table2", "error": "boom"})
        outcome = queue.outcome(job_id)
        assert outcome["state"] == "failed" and outcome["error"] == "boom"

    def test_requeue_returns_job_to_pending(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(spec())
        queue.claim("w")
        assert queue.requeue(job_id)
        assert queue.counts()["pending"] == 1
        assert queue.read_heartbeat(job_id) is None
        assert not queue.requeue(job_id)  # already back

    def test_torn_spec_parked_in_failed(self, tmp_path):
        queue = JobQueue(tmp_path)
        pending = queue.state_dir("pending")
        pending.mkdir(parents=True)
        (pending / "000-bad-deadbeef.json").write_text("{ torn")
        assert queue.claim("w") is None
        assert queue.counts()["failed"] == 1
        outcome = queue.outcome("000-bad-deadbeef")
        assert "unreadable" in outcome["error"]

    def test_reclaim_stale_by_heartbeat_age(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(spec())
        queue.claim("w")  # heartbeat stamped now
        assert queue.reclaim_stale(stale_after=300.0) == []
        reclaimed = queue.reclaim_stale(
            stale_after=300.0, now=time.time() + 1000.0)
        assert reclaimed == [job_id]
        assert queue.counts()["pending"] == 1

    def test_reclaim_stale_rejects_negative_age(self, tmp_path):
        """A negative age would requeue live claims (run twice)."""
        queue = JobQueue(tmp_path)
        queue.submit(spec())
        queue.claim("w")  # heartbeat stamped now
        with pytest.raises(ValueError, match="stale_after"):
            queue.reclaim_stale(stale_after=-1.0)
        assert queue.counts()["claimed"] == 1

    def test_reclaim_stale_without_heartbeat(self, tmp_path):
        """A worker that died between claim-rename and first heartbeat
        is recovered via the claim file's mtime."""
        queue = JobQueue(tmp_path)
        job_id = queue.submit(spec())
        queue.claim("w")
        (queue.heartbeats_dir / f"{job_id}.json").unlink()
        assert queue.reclaim_stale(
            stale_after=300.0, now=time.time() + 1000.0) == [job_id]

    def test_drain_empties_every_state(self, tmp_path):
        queue = JobQueue(tmp_path)
        done_id = queue.submit(spec())
        queue.claim("w")
        queue.finish(done_id, {"experiment": "table2"})
        claimed_id = queue.submit(spec())
        queue.claim("w")
        assert queue.counts()["claimed"] == 1 and claimed_id
        queue.submit(spec())  # left pending
        removed = queue.drain()
        assert removed == {"pending": 1, "claimed": 1, "done": 1,
                           "failed": 0}
        assert queue.counts() == {state: 0 for state in
                                  ("pending", "claimed", "done", "failed")}

    def test_heartbeat_carries_progress(self, tmp_path):
        queue = JobQueue(tmp_path)
        progress = CampaignProgress(done=3, total=8, executed=2, cached=1,
                                    eta_seconds=1.5, last_name="nap2")
        queue.heartbeat("some-job", worker="w9", progress=progress)
        beat = queue.read_heartbeat("some-job")
        assert beat["worker"] == "w9" and beat["pid"] == os.getpid()
        assert (beat["done"], beat["total"]) == (3, 8)
        assert beat["eta_seconds"] == 1.5
        assert beat["last_name"] == "nap2"


def claim_all(queue_root, worker, barrier, out_queue):
    """Contention worker: claim until the queue is empty."""
    queue = JobQueue(queue_root)
    barrier.wait(timeout=10.0)
    while True:
        claimed = queue.claim(worker)
        if claimed is None:
            break
        out_queue.put(claimed[0])


def fleet_worker(queue_root, store_root, worker):
    """End-to-end fleet worker: claim, run campaigns, conclude."""
    queue = JobQueue(queue_root)
    store = ResultStore(store_root)
    work_loop(queue, store, worker=worker)


class TestContention:
    def test_each_job_claimed_exactly_once(self, tmp_path):
        queue = JobQueue(tmp_path)
        submitted = {queue.submit(spec()) for _ in range(6)}
        barrier = multiprocessing.Barrier(3)
        out_queue = multiprocessing.Queue()
        procs = [multiprocessing.Process(
            target=claim_all,
            args=(tmp_path, f"w{i}", barrier, out_queue))
            for i in range(3)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30.0)
        assert all(p.exitcode == 0 for p in procs)
        claims = []
        while not out_queue.empty():
            claims.append(out_queue.get())
        assert sorted(claims) == sorted(submitted)  # no dup, no loss
        assert queue.counts()["claimed"] == 6


class TestRunJob:
    def test_end_to_end_then_cached_rerun(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "cache")
        job_id = queue.submit(spec("table2"))
        _, job_spec = queue.claim("w")
        outcome = run_job(queue, job_id, job_spec, store, worker="w")
        assert outcome["state"] == "done"
        assert (outcome["executed"], outcome["cached"]) == (2, 0)
        assert queue.counts()["done"] == 1
        assert dict(store.load_reports())["table2"].startswith("Table 2")
        assert store.progress_hook is None  # detached after the job

        rerun_id = queue.submit(spec("table2"))
        _, rerun_spec = queue.claim("w")
        outcome = run_job(queue, rerun_id, rerun_spec, store, worker="w")
        assert (outcome["executed"], outcome["cached"]) == (0, 2)

    def test_job_queued_with_batch_points_still_runs(self, tmp_path):
        """A job document written while ``batch_points`` was still a
        JobSpec field decodes (the stale field is dropped) and runs."""
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "cache")
        pending = queue.state_dir("pending")
        pending.mkdir(parents=True)
        (pending / "0000000000001-table2-0000abcd.json").write_text(
            json.dumps({
                "format": JOB_FORMAT,
                "payload": {
                    "__dataclass__": "repro.campaign.queue:JobSpec",
                    "fields": {
                        "batch_points": False,
                        "chunk_bits": None,
                        "experiment": "table2",
                        "full": False,
                        "modules": {"__tuple__": []},
                        "processes": None,
                        "seed": 3,
                        "submitted": 0.0}}}))
        job_id, job_spec = queue.claim("w")
        assert job_spec == spec("table2", seed=3)
        assert not hasattr(job_spec, "batch_points")
        outcome = run_job(queue, job_id, job_spec, store, worker="w")
        assert outcome["state"] == "done"
        assert queue.counts()["done"] == 1

    def test_unknown_experiment_fails_job(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "cache")
        job_id = queue.submit(spec("no_such_experiment"))
        _, job_spec = queue.claim("w")
        outcome = run_job(queue, job_id, job_spec, store, worker="w")
        assert outcome["state"] == "failed"
        assert "no_such_experiment" in outcome["error"]
        assert queue.counts()["failed"] == 1

    def test_work_loop_runs_all_jobs_and_logs(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "cache")
        queue.submit(spec("table2", seed=1))
        queue.submit(spec("table2", seed=2))
        lines = []
        outcomes = work_loop(queue, store, worker="solo",
                             log=lines.append)
        assert [o["state"] for o in outcomes] == ["done", "done"]
        assert sum(o["executed"] for o in outcomes) == 4
        assert queue.counts()["done"] == 2
        assert all("done executed=2 cached=0" in line for line in lines)
        assert store.preempt_hook is None

    def test_work_loop_preempt_before_claiming(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "cache")
        queue.submit(spec("table2"))
        outcomes = work_loop(queue, store, worker="w",
                             preempt=lambda: True)
        assert outcomes == []
        assert queue.counts()["pending"] == 1  # untouched

    def test_work_loop_max_jobs(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        store = ResultStore(tmp_path / "cache")
        queue.submit(spec("table2", seed=1))
        queue.submit(spec("table2", seed=2))
        outcomes = work_loop(queue, store, worker="w", max_jobs=1)
        assert len(outcomes) == 1
        assert queue.counts() == {"pending": 1, "claimed": 0,
                                  "done": 1, "failed": 0}


class TestFleet:
    def test_two_workers_complete_each_scenario_exactly_once(
            self, tmp_path):
        """The acceptance contract: a two-worker fleet over two jobs
        finishes every scenario exactly once, and re-submitting both
        campaigns executes nothing."""
        queue_root, store_root = tmp_path / "q", tmp_path / "cache"
        queue = JobQueue(queue_root)
        submitted = [queue.submit(spec("table2", seed=s)) for s in (1, 2)]
        procs = [multiprocessing.Process(
            target=fleet_worker, args=(queue_root, store_root, f"w{i}"))
            for i in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=300.0)
        assert all(p.exitcode == 0 for p in procs)

        assert queue.counts() == {"pending": 0, "claimed": 0,
                                  "done": 2, "failed": 0}
        outcomes = [queue.outcome(job_id) for job_id in submitted]
        # 2 scenarios per seeded campaign, each executed exactly once
        assert sum(o["executed"] for o in outcomes) == 4
        assert sum(o["cached"] for o in outcomes) == 0
        store = ResultStore(store_root)
        assert len(store.entries()) == 4

        # resubmission: the shared store satisfies everything
        for s in (1, 2):
            queue.submit(spec("table2", seed=s))
        outcomes = work_loop(queue, store, worker="rerun")
        assert sum(o["executed"] for o in outcomes) == 0
        assert sum(o["cached"] for o in outcomes) == 4


SLEEPY_MODULE = '''\
"""Test fixture: an experiment of slow scenarios (for preemption)."""
import time

from repro.campaign import CampaignRunner
from repro.core.scenario import Scenario
from repro.experiments.registry import experiment


def nap(duration, index, rng=None):
    time.sleep(duration)
    return index


@experiment("sleepy", description="napping scenarios (test fixture)")
def sleepy_experiment(ctx):
    runner = CampaignRunner(store=ctx.store)
    for index in range(8):
        runner.add(Scenario(name=f"nap{index}", fn=nap, seed=7,
                            rng_param="rng",
                            params={"duration": 0.25, "index": index}))
    report = runner.run()
    return f"sleepy: {report.executed + report.cached}/8 naps"
'''


class TestGracefulPreemption:
    def test_sigint_checkpoints_and_requeues(self, tmp_path):
        """SIGINT mid-campaign: zero completed results are lost, the
        job goes back to pending, and a second worker finishes only
        the remainder."""
        mods = tmp_path / "mods"
        mods.mkdir()
        (mods / "sleepy_exp.py").write_text(SLEEPY_MODULE)
        queue_root = tmp_path / "q"
        store_root = tmp_path / "cache"
        queue = JobQueue(queue_root)
        job_id = queue.submit(JobSpec(experiment="sleepy",
                                      modules=("sleepy_exp",)))

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), str(mods),
             env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        argv = [sys.executable, "-m", "repro", "queue", "work",
                "--queue-dir", str(queue_root),
                "--cache-dir", str(store_root)]
        proc = subprocess.Popen(argv, env=env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                beat = queue.read_heartbeat(job_id) or {}
                if beat.get("done", 0) >= 1:
                    break
                time.sleep(0.02)
            else:  # pragma: no cover - diagnostics only
                proc.kill()
                pytest.fail(f"no progress heartbeat; stderr:\n"
                            f"{proc.communicate()[1]}")
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        assert proc.returncode == 0, err
        assert "preempted" in out

        # the job went back to pending with its progress checkpointed
        assert queue.counts() == {"pending": 1, "claimed": 0,
                                  "done": 0, "failed": 0}
        store = ResultStore(store_root)
        checkpointed = len(store.entries())
        assert 1 <= checkpointed < 8  # something done, not everything

        # a fresh worker completes exactly the remainder
        done = subprocess.run(argv, env=env, text=True,
                              capture_output=True, timeout=120.0)
        assert done.returncode == 0, done.stderr
        assert queue.counts()["done"] == 1
        outcome = queue.outcome(job_id)
        assert outcome["state"] == "done"
        assert outcome["executed"] == 8 - checkpointed
        assert outcome["cached"] == checkpointed
        assert len(store.entries()) == 8
