"""Declarative scenarios and their one execution loop.

Every workload in this repository ultimately boils down to "call one
top-level harness function with some parameters and a seed" - a BER
point, a Table-1 timing run, a figure-5 transient, an ablation arm.
This module gives that pattern one vocabulary:

* :class:`Scenario` - a named, seeded unit of work (function +
  parameters + reproducible seeding policy),
* :class:`ScenarioGroup` - scenarios that run as one call sharing
  the work they have in common (each keeps its own name and content
  address),
* :class:`SweepResult` - one scenario's value and wall time,
* :func:`fan_out` - the one execution loop: runs a batch of scenarios
  and groups serially or over processes, timing each one.  Its one
  caller is :class:`repro.campaign.runner.CampaignRunner`, the runner
  every harness goes through.

Multiprocessing notes: with ``processes > 1`` the scenario functions and
parameters must be picklable (top-level functions, no lambdas or
closures); each result reaches its caller with its submission index.
Serial execution (``processes`` of ``None``/``0``/``1``) has no such
restriction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.obs import trace as _trace


@dataclass(frozen=True)
class Scenario:
    """One named, seeded unit of work.

    Args:
        name: label of the run (report/artifact key).
        fn: the harness function to call.
        params: keyword arguments for *fn*.
        seed: reproducible seed of this run (anything accepted by
            :func:`numpy.random.default_rng`); ``None`` means unseeded
            - injected generators/seeds then come from fresh OS
            entropy.
        rng_param: if set, pass ``np.random.default_rng(seed)`` to *fn*
            under this keyword (the convention of ``ber_curve`` and
            friends).
        cache: opt-out flag for the campaign layer - ``False`` marks a
            run that must execute every time even under a result store
            (e.g. repeated timing measurements, whose content address
            would otherwise collapse the repeats onto one entry).
    """

    name: str
    fn: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: Any = None
    rng_param: str | None = None
    cache: bool = True

    def build_kwargs(self) -> dict[str, Any]:
        kwargs = dict(self.params)
        if self.rng_param:
            # seed=None -> fresh entropy, still a valid generator.  The
            # first call imports numpy.random; the span keeps that time
            # in a leaf of the trace.
            with _trace.span("scenario.rng"):
                kwargs[self.rng_param] = np.random.default_rng(self.seed)
        return kwargs

    def run(self) -> Any:
        """Execute the scenario and return the harness result."""
        return self.fn(**self.build_kwargs())


@dataclass(frozen=True)
class ScenarioGroup:
    """Scenarios that run as one call, which does their shared work
    once - the multi-user BER scenarios with one
    :func:`repro.link.ops.mui_draw_key`, for example, which draw the
    same bits and noise.

    Each member could still run alone and keeps its name, seed and
    content address; the group only changes how its members execute.

    Args:
        members: the grouped scenarios, two or more (see :meth:`of`).
        fn: ``fn(calls)``: given each member's keyword arguments
            (:meth:`Scenario.build_kwargs`, in member order), returns
            one value per member - each equal to the member's own
            :meth:`Scenario.run`.
    """

    members: tuple[Scenario, ...]
    fn: Callable[[list[dict[str, Any]]], Sequence[Any]]

    @classmethod
    def of(cls, members: Sequence[Scenario], fn: Callable
           ) -> "Scenario | ScenarioGroup":
        """A group of *members*, or its one member, which runs alone."""
        if len(members) == 1:
            return members[0]
        return cls(members=tuple(members), fn=fn)

    @property
    def name(self) -> str:
        return "+".join(m.name for m in self.members)

    def run(self) -> list[Any]:
        """Execute the members as one call; one value per member."""
        values = list(self.fn([m.build_kwargs() for m in self.members]))
        if len(values) != len(self.members):
            raise ValueError(f"group {self.name} returned {len(values)} "
                             f"values for {len(self.members)} members")
        return values


def members_of(unit: Scenario | ScenarioGroup) -> tuple[Scenario, ...]:
    """The scenarios a scenario or group runs."""
    return unit.members if isinstance(unit, ScenarioGroup) else (unit,)


@dataclass
class SweepResult:
    """Outcome of one scenario: the returned value plus wall time.

    ``cached`` marks results served from a
    :class:`repro.campaign.store.ResultStore` instead of executed
    (their ``wall_time`` is the original run's).
    """

    scenario: Scenario
    value: Any
    wall_time: float
    cached: bool = False

    @property
    def name(self) -> str:
        return self.scenario.name

    @property
    def params(self) -> Mapping[str, Any]:
        return self.scenario.params


def _execute(unit: Scenario | ScenarioGroup
             ) -> SweepResult | list[SweepResult]:
    """Worker entry point (top-level so process pools can pickle it):
    a scenario's result, or a group's, one per member.  A group's
    members ran as one call, so each is charged an equal share of its
    wall time."""
    start = time.perf_counter()
    value = unit.run()
    wall = time.perf_counter() - start
    if isinstance(unit, ScenarioGroup):
        return [SweepResult(scenario=m, value=v,
                            wall_time=wall / len(unit.members))
                for m, v in zip(unit.members, value)]
    return SweepResult(scenario=unit, value=value, wall_time=wall)


def _results(result: SweepResult | list[SweepResult]
             ) -> list[SweepResult]:
    return result if isinstance(result, list) else [result]


def fan_out(units: Sequence[Scenario | ScenarioGroup],
            processes: int | None,
            on_result: Callable[[int, list[SweepResult]], None],
            ) -> list[tuple[int, Exception]]:
    """Execute *units* - scenarios and scenario groups - serially
    (``processes`` of ``None``/``0``/``1``) or over a process pool (one
    task per unit), calling ``on_result(index, results)`` with one
    result per member in this process the moment each unit completes.

    Returns the failures as ``(index, exception)`` pairs in completion
    order.  Serial execution fails fast; the pool keeps draining so
    every completed sibling still reaches *on_result*.
    """
    if processes is None or processes <= 1 or not units:
        for i, unit in enumerate(units):
            try:
                # Interior span: the pipeline's leaf spans nest under
                # it, so a trace reads scenario by scenario (a group's
                # span names its members).
                with _trace.span(f"scenario:{unit.name}"):
                    result = _execute(unit)
            except Exception as exc:
                return [(i, exc)]
            on_result(i, _results(result))
        return []
    from concurrent.futures import ProcessPoolExecutor, as_completed

    failures: list[tuple[int, Exception]] = []
    workers = min(processes, len(units))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_execute, unit): i
                   for i, unit in enumerate(units)}
        for future in as_completed(futures):
            try:
                result = future.result()
            except Exception as exc:
                failures.append((futures[future], exc))
                continue
            on_result(futures[future], _results(result))
    return failures
