"""Integrator construction routed through the entity registry.

The paper re-binds one entity (the Integrate & Dump) to a different
architecture per refinement phase without touching the testbench.  This
module gives that discipline one implementation: integrator *names*
map to ``(block, phase)`` bindings in a :class:`ModelRegistry`, and
every link operation resolves :attr:`LinkSpec.integrator` through it
(via :func:`repro.link.backends.build_integrator`).

Default bindings:

==============  =======  ==============================================
name            phase    implementation
==============  =======  ==============================================
``ideal``       II       :class:`~repro.uwb.integrator.IdealIntegrator`
``two_pole``    IV       :class:`~repro.uwb.integrator.TwoPoleIntegrator`
``surrogate``   III      :class:`~repro.uwb.integrator.CircuitSurrogateIntegrator`
``circuit``     III      the transistor netlist co-simulated in the
                         loop (``ops.run_testbench``); the behavioral
                         operations substitute the ``surrogate``
==============  =======  ==============================================

Custom models register with :func:`register_integrator` and are then
selectable by name from any :class:`~repro.link.spec.LinkSpec`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.core.phases import Phase
from repro.core.registry import ModelRegistry
from repro.uwb.integrator import (
    CircuitSurrogateIntegrator,
    IdealIntegrator,
    TwoPoleIntegrator,
    WindowIntegrator,
)
from repro.uwb.system import COSIM

#: registry block namespace of integrator bindings.
INTEGRATOR_BLOCK_PREFIX = "integrator."

def cosim_netlist() -> str:
    """Factory of the ``circuit`` binding (the co-simulation marker)."""
    return COSIM


def check_integrator_interface(block: str, impl: Any) -> None:
    """Terminal-compatibility check of integrator bindings: every
    implementation must speak the :class:`WindowIntegrator` API (the
    co-simulation marker is exempt; its compatibility is electrical
    and enforced by the testbench netlist)."""
    if impl == COSIM:
        return
    for attr in ("window_outputs", "make_state"):
        if not callable(getattr(impl, attr, None)):
            raise TypeError(
                f"{block!r} implementation {type(impl).__name__} lacks "
                f"the WindowIntegrator API (missing {attr}())")


def default_link_registry() -> ModelRegistry:
    """A fresh registry with the built-in integrator bindings."""
    registry = ModelRegistry(interface_check=check_integrator_interface)
    registry.register(
        INTEGRATOR_BLOCK_PREFIX + "ideal", Phase.II, IdealIntegrator,
        description="ideal gated integrator vo' = K vin")
    registry.register(
        INTEGRATOR_BLOCK_PREFIX + "two_pole", Phase.IV, TwoPoleIntegrator,
        description="DC gain + two real poles (the paper's VHDL-AMS "
                    "model)")
    registry.register(
        INTEGRATOR_BLOCK_PREFIX + "surrogate", Phase.III,
        CircuitSurrogateIntegrator,
        description="two poles + measured input compression (fast "
                    "ELDO stand-in)")
    registry.register(
        INTEGRATOR_BLOCK_PREFIX + "circuit", Phase.III, cosim_netlist,
        description="transistor netlist co-simulated in the loop")
    return registry


_REGISTRY: ModelRegistry | None = None


def link_registry() -> ModelRegistry:
    """The process-wide default integrator registry (built lazily)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = default_link_registry()
    return _REGISTRY


def register_integrator(name: str, phase: Phase | int,
                        factory: Callable[..., Any],
                        description: str = "",
                        registry: ModelRegistry | None = None):
    """Bind *factory* as integrator *name* at *phase* (then any
    :class:`~repro.link.spec.LinkSpec` can select it by name)."""
    registry = registry if registry is not None else link_registry()
    return registry.register(INTEGRATOR_BLOCK_PREFIX + name, phase,
                             factory, description=description)


def integrator_names(registry: ModelRegistry | None = None) -> list[str]:
    """Registered integrator names, sorted."""
    registry = registry if registry is not None else link_registry()
    prefix = INTEGRATOR_BLOCK_PREFIX
    return sorted(b[len(prefix):] for b in registry.blocks()
                  if b.startswith(prefix))


def resolve_integrator(integrator: str | WindowIntegrator, *,
                       phase: Phase | int | None = None,
                       params: Mapping[str, Any] |
                       tuple[tuple[str, Any], ...] = (),
                       registry: ModelRegistry | None = None,
                       cosim: bool = False) -> WindowIntegrator | str:
    """Resolve an integrator selection to a model instance.

    Args:
        integrator: a :class:`WindowIntegrator` instance (passed
            through) or a registered name.
        phase: explicit phase selection; ``None`` takes the name's most
            refined registered phase.
        params: constructor overrides forwarded to the bound factory.
        registry: registry to resolve against (default: the
            process-wide :func:`link_registry`).
        cosim: whether the caller can host true circuit co-simulation.
            With ``cosim=False`` the ``"circuit"`` name resolves to the
            behavioral ``"surrogate"`` stand-in (the paper's fast
            substitute for ELDO-in-the-loop); with ``cosim=True`` it
            resolves to the :data:`COSIM` marker.

    Returns:
        A :class:`WindowIntegrator`, or the :data:`COSIM` marker string.

    Raises:
        ValueError: unknown name or phase without a binding.
    """
    if isinstance(integrator, WindowIntegrator):
        return integrator
    if not isinstance(integrator, str):
        raise TypeError(f"integrator spec must be a name or a "
                        f"WindowIntegrator, not {type(integrator).__name__}")
    registry = registry if registry is not None else link_registry()
    name = integrator
    if name == "circuit" and not cosim:
        name = "surrogate"
    block = INTEGRATOR_BLOCK_PREFIX + name
    phases = registry.phases_of(block)
    if not phases:
        raise ValueError(
            f"unknown integrator spec {integrator!r}; registered: "
            f"{', '.join(integrator_names(registry))}")
    if phase is None:
        selected = phases[-1]
    else:
        selected = Phase(phase)
        if selected not in phases:
            raise ValueError(
                f"integrator {name!r} has no {selected} binding; "
                f"available: {[str(p) for p in phases]}")
    factory = registry.binding(block, selected).factory
    kwargs = dict(params)
    if not kwargs:
        return factory()
    if factory is cosim_netlist:
        # Fail with intent, not with a TypeError from the zero-arg
        # sentinel factory: the co-simulated netlist has no behavioral
        # constructor to parameterize.
        raise ValueError(
            "the co-simulated 'circuit' integrator takes no "
            "integrator_params; parameterize the behavioral "
            "'surrogate'/'two_pole' models instead (or register a "
            "custom netlist binding)")
    return factory(**kwargs)
