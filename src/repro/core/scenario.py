"""Declarative scenarios and their one execution loop.

Every workload in this repository ultimately boils down to "call one
top-level harness function with some parameters and a seed" - a BER
point, a Table-1 timing run, a figure-5 transient, an ablation arm.
This module gives that pattern one vocabulary:

* :class:`Scenario` - a named, seeded unit of work (function +
  parameters + reproducible seeding policy),
* :class:`SweepResult` - one scenario's value and wall time,
* :func:`fan_out` - the one execution loop: runs a batch of scenarios
  serially or over processes, timing each one.  Its one caller is
  :class:`repro.campaign.runner.CampaignRunner`, the runner every
  harness goes through.

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
            # seed=None -> fresh entropy, still a valid generator.
            kwargs[self.rng_param] = np.random.default_rng(self.seed)
        return kwargs

    def run(self) -> Any:
        """Execute the scenario and return the harness result."""
        return self.fn(**self.build_kwargs())


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


def _execute(scenario: Scenario) -> SweepResult:
    """Worker entry point (top-level so process pools can pickle it)."""
    start = time.perf_counter()
    value = scenario.run()
    return SweepResult(scenario=scenario, value=value,
                       wall_time=time.perf_counter() - start)


def fan_out(scenarios: Sequence[Scenario], processes: int | None,
            on_result: Callable[[int, SweepResult], None],
            ) -> list[tuple[int, Exception]]:
    """Execute *scenarios* serially (``processes`` of ``None``/``0``/
    ``1``) or over a process pool, calling ``on_result(index, result)``
    in this process the moment each one completes.

    Returns the failures as ``(index, exception)`` pairs in completion
    order.  Serial execution fails fast; the pool keeps draining so
    every completed sibling still reaches *on_result*.
    """
    if processes is None or processes <= 1 or not scenarios:
        for i, scenario in enumerate(scenarios):
            try:
                # Interior span: the pipeline's leaf spans nest under
                # it, so a trace reads scenario by scenario.
                with _trace.span(f"scenario:{scenario.name}"):
                    result = _execute(scenario)
            except Exception as exc:
                return [(i, exc)]
            on_result(i, result)
        return []
    from concurrent.futures import ProcessPoolExecutor, as_completed

    failures: list[tuple[int, Exception]] = []
    workers = min(processes, len(scenarios))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_execute, scenario): i
                   for i, scenario in enumerate(scenarios)}
        for future in as_completed(futures):
            try:
                result = future.result()
            except Exception as exc:
                failures.append((futures[future], exc))
                continue
            on_result(futures[future], result)
    return failures
