"""Top-level spec-driven operations for campaigns and sweeps.

:class:`~repro.core.scenario.Scenario` needs importable, picklable
functions whose keyword arguments content-address cleanly.  These
wrappers are exactly that: each takes a
:class:`~repro.link.spec.LinkSpec` plus a backend name and delegates
to the resolved :class:`~repro.link.backends.Backend` - so every
experiment harness fans out, caches and resumes the same way
regardless of the backend executing it.

Budget keywords default to ``None`` and are forwarded only when set,
letting each backend keep its own native defaults (the kernel's
Monte-Carlo budget is orders of magnitude smaller than fastsim's).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.link.backends import get_backend
from repro.link.spec import LinkSpec, NetworkSpec
from repro.uwb.fastsim import AdaptiveStopping, BerResult
from repro.uwb.integrator import WindowIntegrator
from repro.uwb.ranging import RangingResult
from repro.uwb.system import AmsRunResult


def _backend(name: str, engine: str | None):
    kwargs: dict[str, Any] = {}
    if engine is not None:
        kwargs["engine"] = engine
    return get_backend(name, **kwargs)


def _budget(**candidates: Any) -> dict[str, Any]:
    return {k: v for k, v in candidates.items() if v is not None}


def ber_curve(spec: LinkSpec, ebn0_grid,
              rng: np.random.Generator, *,
              backend: str = "fastsim",
              engine: str | None = None,
              label: str | None = None,
              integrator: str | WindowIntegrator | None = None,
              target_errors: int | None = None,
              max_bits: int | None = None,
              min_bits: int | None = None,
              chunk_bits: int | None = None,
              adaptive: AdaptiveStopping | None = None) -> BerResult:
    """BER versus Eb/N0 through the selected backend."""
    return _backend(backend, engine).ber_curve(
        spec, ebn0_grid, rng, label=label, integrator=integrator,
        adaptive=adaptive,
        **_budget(target_errors=target_errors, max_bits=max_bits,
                  min_bits=min_bits, chunk_bits=chunk_bits))


def mui_ber_curve(network: NetworkSpec, ebn0_grid,
                  rng: np.random.Generator, *,
                  backend: str = "fastsim",
                  engine: str | None = None,
                  label: str | None = None,
                  integrator: str | WindowIntegrator | None = None,
                  target_errors: int | None = None,
                  max_bits: int | None = None,
                  min_bits: int | None = None,
                  chunk_bits: int | None = None,
                  adaptive: AdaptiveStopping | None = None) -> BerResult:
    """Multi-user BER versus Eb/N0 over a :class:`NetworkSpec`.

    The campaign-facing twin of :func:`ber_curve` for multi-user
    scenarios: a distinct top-level name keeps network campaigns
    content-addressed separately from single-link ones, and the
    explicit :class:`NetworkSpec` requirement catches a plain
    :class:`LinkSpec` being fanned out by mistake (wrap it in
    ``NetworkSpec(victim=spec)`` for an interferer-free baseline).
    """
    if not isinstance(network, NetworkSpec):
        raise TypeError("mui_ber_curve needs a NetworkSpec; wrap a "
                        "plain LinkSpec in NetworkSpec(victim=spec) "
                        "for the zero-interferer baseline")
    return _backend(backend, engine).ber_curve(
        network, ebn0_grid, rng, label=label, integrator=integrator,
        adaptive=adaptive,
        **_budget(target_errors=target_errors, max_bits=max_bits,
                  min_bits=min_bits, chunk_bits=chunk_bits))


def ber_sweep(spec: LinkSpec | NetworkSpec, ebn0_grid,
              rng: np.random.Generator, *,
              backend: str = "fastsim",
              engine: str | None = None,
              integrators: tuple = ("ideal", "circuit"),
              labels: tuple | None = None,
              target_errors: int | None = None,
              max_bits: int | None = None,
              min_bits: int | None = None,
              chunk_bits: int | None = None,
              adaptive: AdaptiveStopping | None = None
              ) -> dict[str, BerResult]:
    """Batched multi-curve BER sweep: every (integrator, Eb/N0) cell
    of the campaign graded from one shared front-end pass.

    The whole-campaign unit of work for experiments like fig6 whose
    curves share a seed: one :class:`Scenario` instead of one per
    curve, with each returned curve bit-identical to a standalone
    :func:`ber_curve` run.  Only backends exposing a batched
    ``sweep`` support it (fastsim today).
    """
    b = _backend(backend, engine)
    if not hasattr(b, "sweep"):
        raise TypeError(
            f"backend {backend!r} has no batched sweep path; use "
            "ber_curve per integrator instead")
    return b.sweep(
        spec, ebn0_grid, rng, integrators=integrators, labels=labels,
        adaptive=adaptive,
        **_budget(target_errors=target_errors, max_bits=max_bits,
                  min_bits=min_bits, chunk_bits=chunk_bits))


def ranging(spec: LinkSpec, iterations: int,
            rng: np.random.Generator, *,
            backend: str = "fastsim",
            engine: str | None = None,
            integrator: str | WindowIntegrator | None = None,
            noise_sigma: float = 1e-4,
            tx_amplitude: float = 1.0) -> RangingResult:
    """Two-way ranging at ``spec.channel.distance``."""
    return _backend(backend, engine).ranging(
        spec, iterations, rng, integrator=integrator,
        noise_sigma=noise_sigma, tx_amplitude=tx_amplitude)


def run_testbench(spec: LinkSpec, waveform, *,
                  engine: str = "compiled",
                  cosim_substeps: int = 1,
                  t_stop: float | None = None,
                  record: bool = False,
                  integrator: str | WindowIntegrator | None = None
                  ) -> AmsRunResult:
    """One mixed-signal testbench run over *waveform* (the Table-1
    unit of work) on the AMS kernel backend."""
    kernel = get_backend("kernel", engine=engine,
                         cosim_substeps=cosim_substeps)
    return kernel.packet(spec, waveform, integrator=integrator,
                         t_stop=t_stop, record=record)
