"""The execution context the CLI hands each experiment adapter.

An adapter is a function ``(ctx: ExperimentContext) -> str`` that runs
its harness at the budgets *ctx* selects and returns the rendered
report; :data:`repro.experiments.EXPERIMENTS` maps each CLI name to its
adapter.
"""

from __future__ import annotations

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

    def seed_kwargs(self) -> dict[str, int]:
        """``{"seed": seed}`` when a seed override is set, else ``{}`` -
        the idiom for forwarding the override to harnesses that have
        their own default seed."""
        return {} if self.seed is None else {"seed": self.seed}
