"""Pluggable execution engines for the AMS kernel.

See :mod:`repro.ams.engine.base` for the engine contract,
:mod:`repro.ams.engine.reference` for the lock-step oracle and
:mod:`repro.ams.engine.compiled` for the segment-vectorized backend.
"""

from __future__ import annotations

from repro.ams.engine.base import ExecutionEngine
from repro.ams.engine.compiled import CompiledEngine
from repro.ams.engine.reference import ReferenceEngine

#: Engine registry: name -> engine class.
ENGINES: dict[str, type[ExecutionEngine]] = {
    ReferenceEngine.name: ReferenceEngine,
    CompiledEngine.name: CompiledEngine,
}


def get_engine(spec: str | ExecutionEngine) -> ExecutionEngine:
    """Resolve an engine spec: a registry name (``"reference"`` /
    ``"compiled"``) or an instance (passed through)."""
    if isinstance(spec, ExecutionEngine):
        return spec
    try:
        return ENGINES[spec]()
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown engine {spec!r}; known engines: "
            f"{sorted(ENGINES)}") from None

