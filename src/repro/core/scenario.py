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
  :class:`repro.campaign.runner.CampaignRunner`),
* :meth:`SweepRunner.sweep` - builds the cartesian product of parameter
  axes with deterministic per-run seeds spawned from one base seed.

Multiprocessing notes: with ``processes > 1`` the scenario functions and
parameters must be picklable (top-level functions, no lambdas or
closures); results come back in submission order.  Serial execution
(``processes`` of ``None``/``0``/``1``) has no such restriction.
"""

from __future__ import annotations

import itertools
import json
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

    #: format marker of the JSON serialization.
    JSON_FORMAT = "repro.sweep-report/1"

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialize the report (scenarios, values, timings) to JSON.

        Values are encoded with :mod:`repro.core.serialization`: result
        dataclasses and NumPy arrays round-trip exactly; scenario
        functions are stored as ``module:qualname`` references, so
        reports over lambdas cannot be serialized.
        """
        from repro.core.serialization import to_jsonable

        payload = {"format": self.JSON_FORMAT,
                   "results": [to_jsonable(r) for r in self.results]}
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        """Inverse of :meth:`to_json`."""
        from repro.core.serialization import from_jsonable

        payload = json.loads(text)
        fmt = payload.get("format")
        if fmt != cls.JSON_FORMAT:
            raise ValueError(f"unsupported sweep-report format: {fmt!r}")
        return cls(results=[from_jsonable(r)
                            for r in payload["results"]])


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

    @classmethod
    def sweep(cls, name: str, fn: Callable[..., Any],
              axes: Mapping[str, Sequence[Any]], *,
              base: Mapping[str, Any] | None = None,
              base_seed: int | None = None,
              rng_param: str | None = None,
              seed_param: str | None = None,
              processes: int | None = None) -> "SweepRunner":
        """Cartesian-product sweep builder.

        Args:
            name: prefix of the scenario names (each run is labeled
                ``name[axis=value,...]``).
            fn: harness function shared by all runs.
            axes: mapping of parameter name to the values to sweep
                (cartesian product over all axes, in declaration order).
            base: parameters common to every run.
            base_seed: if given, deterministic per-run seeds are spawned
                from it with :class:`numpy.random.SeedSequence`, so the
                sweep is reproducible regardless of execution order or
                fan-out degree.
            rng_param / seed_param: seeding conventions passed through
                to :class:`Scenario`.
        """
        def axis_label(value: Any) -> str:
            # Prefer a model-style .name; fall back to str() unless it
            # is a default repr whose memory address would make the
            # scenario name differ between runs (the dedup suffixes
            # below keep type-name labels unique).
            name = getattr(value, "name", None)
            if isinstance(name, str) and name:
                return name
            text = str(value)
            if text.startswith("<") and " at 0x" in text:
                return type(value).__name__
            return text

        keys = list(axes)
        combos = list(itertools.product(*(axes[k] for k in keys)))
        seeds: Sequence[Any]
        if base_seed is not None:
            seeds = np.random.SeedSequence(base_seed).spawn(len(combos))
        else:
            seeds = [None] * len(combos)
        runner = cls(processes=processes)
        used: dict[str, int] = {}
        for combo, seed in zip(combos, seeds):
            params = dict(base or {})
            params.update(zip(keys, combo))
            label = ",".join(f"{k}={axis_label(v)}"
                             for k, v in zip(keys, combo))
            run_name = f"{name}[{label}]"
            # Axis values may share a display label (e.g. two models of
            # the same class); keep names unique so by_name() is
            # lossless.
            count = used.get(run_name, 0)
            used[run_name] = count + 1
            if count:
                run_name = f"{run_name}#{count + 1}"
            runner.add(Scenario(name=run_name, fn=fn,
                                params=params, seed=seed,
                                rng_param=rng_param,
                                seed_param=seed_param))
        return runner

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
