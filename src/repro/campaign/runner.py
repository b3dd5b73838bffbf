"""Resumable campaign execution on top of :class:`SweepRunner`.

A :class:`CampaignRunner` is a drop-in :class:`SweepRunner` that,
when given a :class:`~repro.campaign.store.ResultStore`,

* serves already-computed scenarios straight from the store (their
  :class:`SweepResult` comes back with ``cached=True``),
* executes only the missing ones through the same
  :func:`~repro.core.scenario.fan_out` loop as ``SweepRunner``,
  **checkpointing each result the moment it completes** - an
  interrupted sweep therefore loses at most the scenario in flight,
  and re-running the identical campaign completes only what is
  missing,
* merges cached and fresh results into one report in submission order.

With ``store=None`` nothing is cached and a failing scenario's
exception propagates unwrapped, as from a plain ``SweepRunner``, so
harnesses can route through it unconditionally.

The queue worker (:mod:`repro.campaign.queue`) attaches two hooks to
the store it hands the harness, and the runner honors them:

* ``store.progress_hook`` receives a :class:`CampaignProgress` after
  every completed scenario (cached or executed), carrying an ETA
  derived from the per-scenario wall-time history - cache hits
  contribute their original run's wall time, so the estimate is
  meaningful from the first heartbeat of a resumed campaign.
* ``store.preempt_hook`` is polled between checkpoints; once it
  returns true the runner stops starting new work, checkpoints
  everything already in flight, and raises
  :class:`CampaignPreempted` - the worker then requeues the job, and
  the next run resumes from the checkpoints.

Failures are wrapped in :class:`CampaignError`, which names the failed
scenario(s) and says how many sibling results were still checkpointed
(so an operator knows a re-run will only redo the failures).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.scenario import (
    Scenario,
    SweepReport,
    SweepResult,
    SweepRunner,
    fan_out,
)
from repro.campaign.store import ResultStore
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

_SCENARIO_WALL = _metrics.REGISTRY.histogram("campaign.scenario.wall_s")


class CampaignError(RuntimeError):
    """One or more scenarios of a campaign failed.

    Attributes:
        failures: ``[(scenario name, exception), ...]`` in completion
            order.
        checkpointed: sibling results that completed and were written
            to the store before this error was raised - a re-run
            executes only the failures.
    """

    def __init__(self, failures: list[tuple[str, BaseException]],
                 checkpointed: int):
        self.failures = failures
        self.checkpointed = checkpointed
        names = ", ".join(name for name, _ in failures)
        first = failures[0][1]
        super().__init__(
            f"{len(failures)} campaign scenario(s) failed ({names}): "
            f"{first}; {checkpointed} sibling result(s) were "
            f"checkpointed and will be served from cache on re-run")


class CampaignPreempted(RuntimeError):
    """The campaign was preempted (store ``preempt_hook`` fired).

    Everything already completed was checkpointed; ``remaining`` names
    the scenarios a re-run still has to execute.
    """

    def __init__(self, checkpointed: int, remaining: list[str]):
        self.checkpointed = checkpointed
        self.remaining = remaining
        super().__init__(
            f"campaign preempted: {checkpointed} result(s) "
            f"checkpointed, {len(remaining)} scenario(s) requeued")


@dataclass(frozen=True)
class CampaignProgress:
    """One progress tick, delivered after each completed scenario.

    Attributes:
        done / total: completed vs. submitted scenarios (cache hits
            count as done immediately).
        executed / cached: breakdown of ``done``.
        eta_seconds: projected remaining wall time from the mean of
            the per-scenario wall-time history (cache hits contribute
            their original run's time); ``None`` until at least two
            samples exist (a single sample - often a cache hit or an
            unrepresentative first scenario - projects nonsense).
        last_name: the scenario that just completed.
        stage_walls: cumulative per-stage wall breakdown
            (:func:`repro.obs.trace.stage_summary`) when tracing is
            enabled in the running process; ``None`` otherwise.  The
            queue worker forwards it into the heartbeat file so
            ``repro queue status`` can show live stage breakdowns.
    """

    done: int
    total: int
    executed: int
    cached: int
    eta_seconds: float | None
    last_name: str | None = None
    stage_walls: dict[str, float] | None = None

    @property
    def remaining(self) -> int:
        return self.total - self.done


@dataclass
class CampaignReport(SweepReport):
    """A :class:`SweepReport` plus campaign bookkeeping.

    Attributes:
        executed: scenarios actually run this invocation.
        cached: scenarios served from the result store.
    """

    executed: int = 0
    cached: int = 0


class _ProgressTracker:
    """Wall-time history + progress fan-out for one run() invocation."""

    def __init__(self, total: int,
                 hook: Callable[[CampaignProgress], None] | None):
        self.total = total
        self.hook = hook
        self.executed = 0
        self.cached = 0
        self._samples: list[float] = []

    @property
    def done(self) -> int:
        return self.executed + self.cached

    def eta_seconds(self) -> float | None:
        # A single sample is no basis for a projection (it is often a
        # cache hit, or the campaign's one unrepresentative warm-up
        # scenario) - report "unknown" until the mean means something.
        if len(self._samples) < 2:
            return None
        mean = sum(self._samples) / len(self._samples)
        return mean * (self.total - self.done)

    def tick(self, result: SweepResult, *, cached: bool) -> None:
        if cached:
            self.cached += 1
        else:
            self.executed += 1
        self._samples.append(result.wall_time)
        _SCENARIO_WALL.observe(result.wall_time)
        if self.hook is not None:
            stage_walls = (dict(_trace.stage_summary())
                           if _trace.ENABLED else None)
            progress = CampaignProgress(
                done=self.done, total=self.total,
                executed=self.executed, cached=self.cached,
                eta_seconds=self.eta_seconds(),
                last_name=result.name,
                stage_walls=stage_walls)
            try:
                self.hook(progress)
            except Exception as exc:
                # A broken observer must not abort the campaign: the
                # results are valid regardless of who is watching.
                warnings.warn(
                    f"campaign progress hook raised {exc!r}; "
                    "continuing without aborting the campaign",
                    RuntimeWarning, stacklevel=2)


class CampaignRunner(SweepRunner):
    """A :class:`SweepRunner` with content-addressed result caching.

    Args:
        scenarios: initial scenarios (more can be :meth:`add`-ed).
        processes: fan-out degree (see :class:`SweepRunner`).
        store: result store; ``None`` disables caching entirely.
        progress: optional progress callback; defaults to the store's
            ``progress_hook`` (the queue worker's channel).
        preempt: optional zero-argument callable polled between
            checkpoints; defaults to the store's ``preempt_hook``.
    """

    def __init__(self, scenarios: Iterable[Scenario] = (), *,
                 processes: int | None = None,
                 store: ResultStore | None = None,
                 progress: Callable[[CampaignProgress], None] | None = None,
                 preempt: Callable[[], bool] | None = None):
        super().__init__(scenarios, processes=processes)
        self.store = store
        self.progress = progress
        self.preempt = preempt

    def _hooks(self):
        progress = self.progress
        if progress is None and self.store is not None:
            progress = getattr(self.store, "progress_hook", None)
        preempt = self.preempt
        if preempt is None and self.store is not None:
            preempt = getattr(self.store, "preempt_hook", None)
        return progress, preempt

    def run(self) -> CampaignReport:
        """Execute the campaign; cached scenarios are not re-run.

        Raises:
            CampaignError: one or more scenarios failed (completed
                siblings were checkpointed first).
            CampaignPreempted: the store's ``preempt_hook`` fired; the
                remainder should be requeued.
        """
        store = self.store
        progress, preempt = self._hooks()
        tracker = _ProgressTracker(len(self.scenarios), progress)
        slots: list[SweepResult | None] = [None] * len(self.scenarios)
        pending: list[tuple[int, str | None, Scenario]] = []
        for i, scenario in enumerate(self.scenarios):
            key = hit = None
            if store is not None:
                # The key is computed once and reused for the
                # checkpoint: execution may mutate lazy caches inside
                # param objects, which must not move the content
                # address.
                key = store.scenario_key(scenario)
                hit = store.get(scenario, key)
            if hit is not None:
                slots[i] = hit
                tracker.tick(hit, cached=True)
            else:
                pending.append((i, key, scenario))

        def checkpoint(j: int, result: SweepResult) -> None:
            i, key, scenario = pending[j]
            if store is not None:
                store.put(scenario, result, key)
            slots[i] = result
            tracker.tick(result, cached=False)

        failures, stopped = fan_out([s for _i, _k, s in pending],
                                    self.processes, checkpoint, preempt)
        checkpointed = tracker.executed
        named = [(pending[j][2].name, exc) for j, exc in failures]
        failed = [name for name, _exc in named]
        if stopped:
            remaining = [s.name for i, _k, s in pending
                         if slots[i] is None and s.name not in failed]
            raise CampaignPreempted(checkpointed=checkpointed,
                                    remaining=remaining + failed)
        if failures:
            if store is None:
                raise failures[0][1]
            raise CampaignError(named, checkpointed=checkpointed) \
                from failures[0][1]
        return CampaignReport(results=slots,
                              executed=len(pending),
                              cached=len(self.scenarios) - len(pending))
