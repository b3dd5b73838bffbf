"""Persistent on-disk job queue + worker pool for experiment campaigns.

``python -m repro run`` executes one campaign in the foreground; this
module turns campaigns into a *service*: submit N of them as durable
JSON job specs, then run any number of worker processes - on one
machine or many sharing a filesystem - that steal jobs from the queue,
execute them through the campaign layer (so every scenario checkpoint
lands in the shared :class:`~repro.campaign.store.ResultStore`)
and report heartbeat progress/ETA while they run.

Queue layout (all records are format-tagged JSON, written atomically)::

    <queue root>/
        pending/<job id>.json     submitted specs, oldest id first
        claimed/<job id>.json     spec, while a worker owns the job
        done/<job id>.json        outcome: executed/cached/wall/worker
        failed/<job id>.json      outcome + error text
        heartbeats/<job id>.json  live progress: done/total/ETA/worker

**Work stealing** needs no locks: claiming a job is a single
``os.replace`` of its spec from ``pending/`` to ``claimed/`` - exactly
one of any number of racing workers wins the rename, the others get
``FileNotFoundError`` and move on to the next job.

**Graceful preemption**: the worker loop converts SIGINT/SIGTERM into
a preempt flag that the campaign runner polls between scenario
checkpoints (via the store's ``preempt_hook``).  Completed scenarios
are already in the store, the in-flight remainder raises
:class:`~repro.campaign.runner.CampaignPreempted`, and the worker puts
the job back into ``pending/`` - re-running it executes only what is
missing.  A worker that dies without cleanup leaves its job in
``claimed/`` with a cooling heartbeat; :meth:`JobQueue.reclaim_stale`
(run when a ``repro queue work`` worker starts) returns such jobs to
the queue.

Job ids sort oldest-first (millisecond timestamp prefix), carry the
experiment name for humans, and end in a random nonce so identical
specs can be queued repeatedly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.campaign.runner import (
    CampaignPreempted,
    CampaignProgress,
)
from repro.campaign.store import ResultStore, default_cache_dir
from repro.campaign.objects import atomic_write
from repro.core.serialization import dump_tagged, load_tagged
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = ["JOB_FORMAT", "HEARTBEAT_FORMAT", "OUTCOME_FORMAT",
           "JobQueue", "JobSpec", "default_queue_dir", "run_job",
           "work_loop"]

#: format markers of the queue's on-disk records.
JOB_FORMAT = "repro.job/1"
HEARTBEAT_FORMAT = "repro.heartbeat/1"
OUTCOME_FORMAT = "repro.job-outcome/1"

#: job lifecycle directories, in display order.
STATES = ("pending", "claimed", "done", "failed")

#: a claimed job whose heartbeat is older than this is presumed dead
#: and eligible for :meth:`JobQueue.reclaim_stale`.
DEFAULT_STALE_AFTER = 300.0


def default_queue_dir() -> Path:
    """``$REPRO_QUEUE_DIR`` or ``<cache root>/queue``."""
    env = os.environ.get("REPRO_QUEUE_DIR")
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "queue"


@dataclass(frozen=True)
class JobSpec:
    """One queued campaign: an experiment plus its execution knobs.

    The fields mirror :class:`~repro.experiments.registry.
    ExperimentContext` (the queue is a durable, deferred ``repro
    run``).  ``modules`` lists extra modules the worker imports before
    resolving the experiment, so user-defined ``@experiment``
    registrations travel with the job.
    """

    experiment: str
    full: bool = False
    seed: int | None = None
    processes: int | None = None
    chunk_bits: int | None = None
    modules: tuple[str, ...] = ()
    submitted: float = field(default=0.0)

    def to_json(self) -> str:
        return dump_tagged(JOB_FORMAT, self, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        spec = load_tagged(JOB_FORMAT, text)
        if not isinstance(spec, cls):
            raise ValueError(f"job document decodes to "
                             f"{type(spec).__name__}, not JobSpec")
        return spec


class JobQueue:
    """A durable, multi-writer campaign queue rooted at a directory.

    Every operation is safe against concurrent queues on the same
    root: submissions are atomic writes, claims are atomic renames,
    and all reads tolerate files vanishing mid-listing (some other
    worker got there first).
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root).expanduser() if root is not None \
            else default_queue_dir()

    def state_dir(self, state: str) -> Path:
        if state not in STATES:
            raise ValueError(f"unknown job state {state!r}")
        return self.root / state

    @property
    def heartbeats_dir(self) -> Path:
        return self.root / "heartbeats"

    # -- submission ---------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Enqueue *spec*; returns its job id."""
        now = time.time()
        spec = replace(spec, submitted=now)
        job_id = (f"{int(now * 1000):013d}-{spec.experiment}-"
                  f"{os.urandom(4).hex()}")
        pending = self.state_dir("pending")
        pending.mkdir(parents=True, exist_ok=True)
        atomic_write(pending / f"{job_id}.json",
                     lambda path: path.write_text(spec.to_json()))
        return job_id

    # -- listing ------------------------------------------------------

    def job_ids(self, state: str) -> list[str]:
        directory = self.state_dir(state)
        if not directory.is_dir():
            return []
        return sorted(path.stem for path in directory.glob("*.json"))

    def load(self, state: str, job_id: str) -> JobSpec | None:
        """The spec of a job in *state*, or ``None`` (gone/torn)."""
        try:
            text = (self.state_dir(state) / f"{job_id}.json").read_text()
            return JobSpec.from_json(text)
        except (OSError, ValueError):
            return None

    def jobs(self, state: str) -> Iterator[tuple[str, JobSpec]]:
        """``(job id, spec)`` pairs in *state*, oldest first."""
        for job_id in self.job_ids(state):
            spec = self.load(state, job_id)
            if spec is not None:
                yield job_id, spec

    def outcome(self, job_id: str) -> dict | None:
        """The outcome record of a finished job (done or failed)."""
        for state in ("done", "failed"):
            try:
                text = (self.state_dir(state) / f"{job_id}.json").read_text()
                return load_tagged(OUTCOME_FORMAT, text)
            except (OSError, ValueError):
                continue
        return None

    # -- the work-stealing claim --------------------------------------

    def claim(self, worker: str) -> tuple[str, JobSpec] | None:
        """Atomically take the oldest pending job, or ``None``.

        Racing workers each attempt the rename; exactly one wins per
        job, the rest silently try the next id.
        """
        claimed_dir = self.state_dir("claimed")
        for job_id in self.job_ids("pending"):
            claimed_dir.mkdir(parents=True, exist_ok=True)
            src = self.state_dir("pending") / f"{job_id}.json"
            dst = claimed_dir / f"{job_id}.json"
            try:
                os.replace(src, dst)
            except FileNotFoundError:
                continue  # another worker stole it
            spec = self.load("claimed", job_id)
            if spec is None:
                # Torn submission: park it in failed/ so it cannot
                # wedge the queue head forever.
                self._write_outcome("failed", job_id, {
                    "experiment": "?", "state": "failed", "worker": worker,
                    "error": "unreadable job spec", "finished": time.time()})
                dst.unlink(missing_ok=True)
                continue
            self.heartbeat(job_id, worker=worker, progress=None,
                           note="claimed")
            return job_id, spec
        return None

    def requeue(self, job_id: str) -> bool:
        """Return a claimed job to pending (preemption/crash recovery)."""
        try:
            os.replace(self.state_dir("claimed") / f"{job_id}.json",
                       self.state_dir("pending") / f"{job_id}.json")
        except FileNotFoundError:
            return False
        (self.heartbeats_dir / f"{job_id}.json").unlink(missing_ok=True)
        return True

    # -- completion ---------------------------------------------------

    def _write_outcome(self, state: str, job_id: str,
                       outcome: dict) -> None:
        directory = self.state_dir(state)
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write(directory / f"{job_id}.json", lambda path:
                     path.write_text(dump_tagged(OUTCOME_FORMAT,
                                                 outcome, indent=1)))

    def _conclude(self, state: str, job_id: str, outcome: dict) -> None:
        self._write_outcome(state, job_id, outcome)
        (self.state_dir("claimed") / f"{job_id}.json").unlink(
            missing_ok=True)
        (self.heartbeats_dir / f"{job_id}.json").unlink(missing_ok=True)

    def finish(self, job_id: str, outcome: dict) -> None:
        self._conclude("done", job_id, dict(outcome, state="done"))

    def fail(self, job_id: str, outcome: dict) -> None:
        self._conclude("failed", job_id, dict(outcome, state="failed"))

    # -- heartbeats ---------------------------------------------------

    def heartbeat(self, job_id: str, *, worker: str,
                  progress: CampaignProgress | None,
                  note: str = "running") -> None:
        """Record live progress of a claimed job (atomic overwrite)."""
        payload: dict[str, Any] = {
            "worker": worker, "time": time.time(), "note": note,
            "pid": os.getpid()}
        if progress is not None:
            payload.update(done=progress.done, total=progress.total,
                           executed=progress.executed,
                           cached=progress.cached,
                           eta_seconds=progress.eta_seconds,
                           last_name=progress.last_name)
            if progress.stage_walls:
                payload["stages"] = dict(progress.stage_walls)
        counters = _metrics.REGISTRY.counter_values()
        if counters:
            payload["counters"] = counters
        self.heartbeats_dir.mkdir(parents=True, exist_ok=True)
        atomic_write(self.heartbeats_dir / f"{job_id}.json", lambda path:
                     path.write_text(dump_tagged(HEARTBEAT_FORMAT,
                                                 payload, indent=1)))

    def read_heartbeat(self, job_id: str) -> dict | None:
        try:
            text = (self.heartbeats_dir / f"{job_id}.json").read_text()
            return load_tagged(HEARTBEAT_FORMAT, text)
        except (OSError, ValueError):
            return None

    def reclaim_stale(self, *, stale_after: float = DEFAULT_STALE_AFTER,
                      now: float | None = None) -> list[str]:
        """Requeue claimed jobs whose worker stopped heartbeating.

        A job with no heartbeat at all uses its claim file's mtime, so
        a worker that died between rename and first heartbeat is still
        recovered.

        Raises:
            ValueError: a negative *stale_after* (it would requeue
                live claimed jobs, which then run twice).
        """
        if not stale_after >= 0:
            raise ValueError(
                f"stale_after must be >= 0, got {stale_after!r}")
        if now is None:
            now = time.time()
        reclaimed = []
        for job_id in self.job_ids("claimed"):
            beat = self.read_heartbeat(job_id)
            if beat is not None:
                last = float(beat.get("time", 0.0))
            else:
                try:
                    last = (self.state_dir("claimed") /
                            f"{job_id}.json").stat().st_mtime
                except OSError:
                    continue
            if now - last > stale_after and self.requeue(job_id):
                reclaimed.append(job_id)
        return reclaimed

    # -- administration -----------------------------------------------

    def counts(self) -> dict[str, int]:
        return {state: len(self.job_ids(state)) for state in STATES}

    def drain(self) -> dict[str, int]:
        """Empty the queue (all states + heartbeats); returns the
        per-state counts removed.  The result store is untouched."""
        removed = {}
        for state in STATES:
            ids = self.job_ids(state)
            for job_id in ids:
                (self.state_dir(state) / f"{job_id}.json").unlink(
                    missing_ok=True)
            removed[state] = len(ids)
        if self.heartbeats_dir.is_dir():
            for path in self.heartbeats_dir.glob("*.json"):
                path.unlink(missing_ok=True)
        return removed


# -- the worker -------------------------------------------------------

def _import_job_modules(spec: JobSpec) -> None:
    import importlib

    for module in spec.modules:
        importlib.import_module(module)


def run_job(queue: JobQueue, job_id: str, spec: JobSpec,
            store: ResultStore, *, worker: str = "worker") -> dict:
    """Execute one claimed job; returns its outcome record.

    The job's experiment runs through the normal campaign path with
    *store* attached, so scenario checkpoints, cache hits and the
    rendered report all behave exactly like ``repro run``.  The
    store's ``preempt_hook`` (installed by the caller) is honored via
    :class:`CampaignPreempted`: the job goes back to pending with its
    completed scenarios already checkpointed.
    """
    from repro.experiments.registry import ExperimentContext, get_experiment

    def on_progress(progress: CampaignProgress) -> None:
        queue.heartbeat(job_id, worker=worker, progress=progress)

    store.progress_hook = on_progress
    store.hits = store.misses = 0
    outcome: dict[str, Any] = {"experiment": spec.experiment,
                               "worker": worker, "job_id": job_id}
    troot = None
    start = time.perf_counter()
    try:
        _import_job_modules(spec)
        experiment = get_experiment(spec.experiment)
        ctx = ExperimentContext(full=spec.full, processes=spec.processes,
                                seed=spec.seed, store=store,
                                chunk_bits=spec.chunk_bits)
        # Each job runs traced into a fresh tree with fresh metrics:
        # the progress hooks above then carry live per-stage walls
        # into the heartbeat file, and the outcome records the final
        # breakdown for `repro stats`.
        _metrics.REGISTRY.reset()
        with _trace.collect(f"job:{spec.experiment}") as troot:
            text = experiment.run(ctx)
    except CampaignPreempted as exc:
        outcome.update(state="preempted", executed=store.misses,
                       cached=store.hits, requeued=len(exc.remaining),
                       wall=time.perf_counter() - start,
                       stages=_job_stages(troot))
        queue.requeue(job_id)
        return outcome
    except Exception as exc:
        outcome.update(state="failed", error=f"{type(exc).__name__}: {exc}",
                       executed=store.misses, cached=store.hits,
                       wall=time.perf_counter() - start,
                       finished=time.time(), stages=_job_stages(troot))
        queue.fail(job_id, outcome)
        return outcome
    finally:
        store.progress_hook = None
    store.save_report(spec.experiment, text)
    outcome.update(state="done", executed=store.misses, cached=store.hits,
                   wall=time.perf_counter() - start, finished=time.time(),
                   stages=_job_stages(troot),
                   counters=_metrics.REGISTRY.counter_values())
    queue.finish(job_id, outcome)
    return outcome


def _job_stages(troot) -> dict[str, float]:
    """Final per-stage wall breakdown of a traced job (empty when the
    job died before tracing started)."""
    return dict(troot.leaf_walls()) if troot is not None else {}


def _format_outcome(job_id: str, outcome: dict) -> str:
    state = outcome.get("state", "?")
    line = (f"job {job_id} [{outcome.get('experiment', '?')}]: {state} "
            f"executed={outcome.get('executed', 0)} "
            f"cached={outcome.get('cached', 0)} "
            f"wall={outcome.get('wall', 0.0):.3f}s")
    if outcome.get("error"):
        line += f" error={outcome['error']}"
    if state == "preempted":
        line += f" requeued={outcome.get('requeued', 0)}"
    return line


def work_loop(queue: JobQueue, store: ResultStore, *,
              worker: str = "worker",
              follow: bool = False, poll: float = 0.5,
              max_jobs: int | None = None,
              preempt: Callable[[], bool] | None = None,
              stale_after: float = DEFAULT_STALE_AFTER,
              log: Callable[[str], None] | None = None) -> list[dict]:
    """Claim and run jobs until the queue is empty (or *preempt*).

    Args:
        queue / store: the queue to steal from and the (shared) result
            store to campaign through.  Run several ``work_loop``
            processes against the same pair for a worker fleet - the
            store's atomic object renames and the rename-based claim
            make that safe.
        worker: id stamped into heartbeats and outcomes.
        follow: keep polling for new jobs after the queue drains
            (a resident worker) instead of returning.
        poll: idle sleep between claim attempts when following.
        max_jobs: stop after this many jobs (``None`` = unbounded).
        preempt: zero-argument callable; once true, the current job is
            gracefully preempted (checkpoint + requeue) and the loop
            exits.  The CLI wires SIGINT/SIGTERM to this.
        stale_after: heartbeat age after which an abandoned claimed
            job is stolen back on loop entry.
        log: line sink for per-job outcome reports (``None`` = silent).

    Returns:
        The outcome records of every job this worker ran.
    """
    outcomes: list[dict] = []
    store.preempt_hook = preempt
    try:
        for job_id in queue.reclaim_stale(stale_after=stale_after):
            if log:
                log(f"job {job_id}: reclaimed from a stale worker")
        while max_jobs is None or len(outcomes) < max_jobs:
            if preempt is not None and preempt():
                break
            claimed = queue.claim(worker)
            if claimed is None:
                if not follow:
                    break
                time.sleep(poll)
                continue
            job_id, spec = claimed
            outcome = run_job(queue, job_id, spec, store, worker=worker)
            outcomes.append(outcome)
            if log:
                log(_format_outcome(job_id, outcome))
            if outcome.get("state") == "preempted":
                break
    finally:
        store.preempt_hook = None
    return outcomes
