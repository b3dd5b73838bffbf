"""Campaign execution: the one runner of every experiment harness.

A :class:`CampaignRunner` runs a batch of
:class:`~repro.core.scenario.Scenario` objects - alone, or in a
:class:`~repro.core.scenario.ScenarioGroup` whose members run as one
call - through the :func:`~repro.core.scenario.fan_out` loop, serially
or over a process pool, and returns their results in submission order.
Given a :class:`~repro.campaign.store.ResultStore` it also

* serves already-computed scenarios straight from the store (their
  :class:`~repro.core.scenario.SweepResult` comes back with
  ``cached=True``),
* executes only the missing ones, **checkpointing each result the
  moment it completes** - an interrupted sweep therefore loses at most
  the scenario (or group) in flight, and re-running the identical
  campaign completes only what is missing; a group's missing members
  run as a smaller group, each checkpointed under its own content
  address,
* merges cached and fresh results into one report in submission order.

With ``store=None`` nothing is cached and a failing scenario's own
exception propagates unwrapped (serially at once, over a pool once the
completed siblings have drained), so harnesses route through it
unconditionally.

Interrupting a campaign needs no protocol: kill it and run it again.
Every completed scenario is already in the store, so the re-run
executes only the scenarios that had not completed.

With a store, failures are wrapped in :class:`CampaignError`, which
names the failed scenario(s) - every member of a failed group - and
says how many sibling results were still checkpointed (so an operator
knows a re-run will only redo the failures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.scenario import (
    Scenario,
    ScenarioGroup,
    SweepResult,
    fan_out,
    members_of,
)
from repro.campaign.store import ResultStore
from repro.obs import metrics as _metrics

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


@dataclass
class CampaignReport:
    """Results of a campaign, in submission order.

    Attributes:
        results: one :class:`SweepResult` per scenario.
        executed: scenarios actually run this invocation.
        cached: scenarios served from the result store.
    """

    results: list[SweepResult]
    executed: int = 0
    cached: int = 0

    def values(self) -> list[Any]:
        return [r.value for r in self.results]

    def by_name(self) -> dict[str, Any]:
        return {r.name: r.value for r in self.results}


class CampaignRunner:
    """Run a batch of :class:`Scenario` objects, optionally in parallel
    and with content-addressed result caching.

    Args:
        scenarios: initial scenarios or scenario groups (more can be
            :meth:`add`-ed).
        processes: fan-out degree; ``None``/``0``/``1`` run serially in
            this process (no pickling requirements), ``>1`` uses a
            process pool (one task per scenario or group).
            Timing-sensitive sweeps (e.g. the Table-1 CPU comparison)
            should run serially so the runs do not contend for cores.
        store: result store; ``None`` disables caching entirely.
    """

    def __init__(self, scenarios: Iterable[Scenario | ScenarioGroup] = (),
                 *, processes: int | None = None,
                 store: ResultStore | None = None):
        self.units: list[Scenario | ScenarioGroup] = list(scenarios)
        self.processes = processes
        self.store = store

    def add(self, unit: Scenario | ScenarioGroup
            ) -> Scenario | ScenarioGroup:
        self.units.append(unit)
        return unit

    def run(self) -> CampaignReport:
        """Execute the campaign; cached scenarios are not re-run.

        Raises:
            CampaignError: with a store, one or more scenarios failed
                (completed siblings were checkpointed first).  Without
                one, the first failure's own exception propagates.
        """
        store = self.store
        slots: list[SweepResult | None] = []
        # What runs: each unit's missing members, as (slot, key,
        # scenario), and the unit that runs them.
        pending: list[list[tuple[int, str | None, Scenario]]] = []
        runs: list[Scenario | ScenarioGroup] = []
        for unit in self.units:
            missing = []
            for scenario in members_of(unit):
                key = hit = None
                if store is not None:
                    # The key is computed once and reused for the
                    # checkpoint: execution may mutate lazy caches
                    # inside param objects, which must not move the
                    # content address.
                    key = store.scenario_key(scenario)
                    hit = store.get(scenario, key)
                if hit is not None:
                    _SCENARIO_WALL.observe(hit.wall_time)
                else:
                    missing.append((len(slots), key, scenario))
                slots.append(hit)
            if missing:
                pending.append(missing)
                runs.append(ScenarioGroup.of([s for _i, _k, s in missing],
                                             unit.fn)
                            if isinstance(unit, ScenarioGroup) else unit)

        def checkpoint(j: int, results: list[SweepResult]) -> None:
            for (i, key, scenario), result in zip(pending[j], results):
                if store is not None:
                    store.put(scenario, result, key)
                slots[i] = result
                _SCENARIO_WALL.observe(result.wall_time)

        failures = fan_out(runs, self.processes, checkpoint)
        executed = sum(len(missing) for missing in pending)
        if failures:
            if store is None:
                raise failures[0][1]
            named = [(scenario.name, exc) for j, exc in failures
                     for _i, _k, scenario in pending[j]]
            checkpointed = sum(slots[i] is not None for missing in pending
                               for i, _k, _s in missing)
            raise CampaignError(named, checkpointed=checkpointed) \
                from failures[0][1]
        return CampaignReport(results=slots, executed=executed,
                              cached=len(slots) - executed)
