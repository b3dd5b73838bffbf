"""Self-declaring experiment registry for the campaign CLI.

Experiment harnesses register a CLI adapter with the
:func:`experiment` decorator::

    @experiment("fig6", description="BER vs Eb/N0, ideal vs circuit",
                order=10)
    def fig6_experiment(ctx: ExperimentContext) -> str:
        result = run_fig6(quick=not ctx.full, store=ctx.store,
                          **ctx.seed_kwargs())
        return result.format_report()

``python -m repro run <name>`` / ``python -m repro run --list`` then
discover them here instead of hard-coding a harness table - adding an
experiment module is enough to make it runnable.  Discovery is simply
``import repro.experiments``: the package's ``__init__`` imports every
harness module, and importing a harness module executes its
decorators.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

#: adapter signature: context in, rendered report text out.
ExperimentFn = Callable[["ExperimentContext"], str]


@dataclass
class ExperimentContext:
    """Execution knobs the CLI hands every experiment adapter.

    Attributes:
        full: paper-scale Monte-Carlo budgets (default: quick).
        processes: process fan-out degree for scenario sweeps.
        seed: seed override (``None`` keeps the harness default).
        store: campaign result store (``None`` disables caching).
        chunk_bits: Monte-Carlo chunk size override (``None`` keeps
            the BER ops' native default).
    """

    full: bool = False
    processes: int | None = None
    seed: int | None = None
    store: Any | None = None
    chunk_bits: int | None = None

    def seed_kwargs(self, name: str = "seed") -> dict[str, int]:
        """``{name: seed}`` when a seed override is set, else ``{}`` -
        the idiom for forwarding the override to harnesses that have
        their own default seed."""
        return {} if self.seed is None else {name: self.seed}


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    Attributes:
        name: CLI name (``python -m repro run <name>``).
        fn: the adapter callable.
        description: one-line summary shown by ``run --list``.
        order: menu sort key (registration order breaks ties by name).
    """

    name: str
    fn: ExperimentFn
    description: str = ""
    order: int = 100

    def run(self, ctx: ExperimentContext) -> str:
        return self.fn(ctx)


_EXPERIMENTS: dict[str, Experiment] = {}


def experiment(name: str, *, description: str = "",
               order: int = 100) -> Callable[[ExperimentFn], ExperimentFn]:
    """Register the decorated adapter as experiment *name*."""
    def decorate(fn: ExperimentFn) -> ExperimentFn:
        if name in _EXPERIMENTS:
            raise ValueError(f"experiment {name!r} is already "
                             f"registered (by "
                             f"{_EXPERIMENTS[name].fn.__module__})")
        _EXPERIMENTS[name] = Experiment(name=name, fn=fn,
                                        description=description,
                                        order=order)
        return fn

    return decorate


def discover() -> None:
    """Import every harness module (idempotent), populating the
    registry."""
    importlib.import_module("repro.experiments")


def all_experiments() -> list[Experiment]:
    """Registered experiments in menu order (after :func:`discover`)."""
    discover()
    return sorted(_EXPERIMENTS.values(),
                  key=lambda e: (e.order, e.name))


def experiment_names() -> list[str]:
    """Registered experiment names in menu order."""
    return [e.name for e in all_experiments()]


def get_experiment(name: str) -> Experiment:
    """Look up one experiment by name.

    Raises:
        KeyError: unknown name (message lists what is registered).
    """
    discover()
    try:
        return _EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: "
            f"{', '.join(experiment_names())}") from None
