"""Declarative scenarios and parallel sweep execution.

Every workload in this repository ultimately boils down to "call one
top-level harness function with some parameters and a seed" - a BER
point, a Table-1 timing run, a figure-5 transient, an ablation arm.
This module gives that pattern one vocabulary:

* :class:`Scenario` - a named, seeded unit of work (function +
  parameters + reproducible seeding policy),
* :class:`SweepRunner` - runs a batch of scenarios serially or fanned
  out over processes, timing each one,
* :func:`fan_out` - the one execution loop behind it (and behind
  :class:`repro.campaign.runner.CampaignRunner`).

Multiprocessing notes: with ``processes > 1`` the scenario functions and
parameters must be picklable (top-level functions, no lambdas or
closures); results come back in submission order.  Serial execution
(``processes`` of ``None``/``0``/``1``) has no such restriction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

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
        seed_param: if set, pass the seed as an ``int`` under this
            keyword (the convention of harnesses like
            ``run_table1(seed=...)``).
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
    seed_param: str | None = None
    cache: bool = True

    def build_kwargs(self) -> dict[str, Any]:
        kwargs = dict(self.params)
        if self.rng_param:
            # seed=None -> fresh entropy, still a valid generator.
            kwargs[self.rng_param] = np.random.default_rng(self.seed)
        if self.seed_param:
            seed = self.seed
            if not isinstance(seed, (int, np.integer)):
                # None or a SeedSequence: derive a concrete integer.
                if not isinstance(seed, np.random.SeedSequence):
                    seed = np.random.SeedSequence(seed)
                seed = int(seed.generate_state(1)[0])
            kwargs[self.seed_param] = int(seed)
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


@dataclass
class SweepReport:
    """Results of a sweep, in submission order."""

    results: list[SweepResult]

    def values(self) -> list[Any]:
        return [r.value for r in self.results]

    def by_name(self) -> dict[str, Any]:
        return {r.name: r.value for r in self.results}

    def __getitem__(self, name: str) -> Any:
        for r in self.results:
            if r.name == name:
                return r.value
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def total_wall_time(self) -> float:
        return sum(r.wall_time for r in self.results)

    def format_table(self) -> str:
        lines = [f"{'Scenario':<32s} {'Wall time':>10s}"]
        for r in self.results:
            suffix = "  (cached)" if r.cached else ""
            lines.append(f"{r.name:<32s} {r.wall_time:>9.3f}s{suffix}")
        return "\n".join(lines)


class SweepRunner:
    """Run a batch of :class:`Scenario` objects, optionally in parallel.

    Args:
        scenarios: initial scenarios (more can be :meth:`add`-ed).
        processes: fan-out degree; ``None``/``0``/``1`` run serially in
            this process (no pickling requirements), ``>1`` uses a
            process pool.  Note that timing-sensitive sweeps (e.g. the
            Table-1 CPU comparison) should run serially so the runs do
            not contend for cores.
    """

    def __init__(self, scenarios: Iterable[Scenario] = (), *,
                 processes: int | None = None):
        self.scenarios: list[Scenario] = list(scenarios)
        self.processes = processes

    def add(self, scenario: Scenario) -> Scenario:
        self.scenarios.append(scenario)
        return scenario

    def extend(self, scenarios: Iterable[Scenario]) -> None:
        self.scenarios.extend(scenarios)

    def run(self) -> SweepReport:
        """Execute all scenarios; results come back in submission
        order regardless of completion order.  A failing scenario's
        exception propagates (over a pool, once the siblings have
        drained)."""
        results: list[Any] = [None] * len(self.scenarios)
        failures = fan_out(self.scenarios, self.processes,
                           results.__setitem__)
        if failures:
            raise failures[0][1]
        return SweepReport(results=results)
