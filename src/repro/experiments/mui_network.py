"""Multi-user interference & coexistence: BER over a ``NetworkSpec``.

The paper's 2-PPM energy-detection receiver is non-coherent: it cannot
separate users by phase or code, so any same-band transmitter's energy
lands directly in the decision statistic.  This experiment quantifies
that sensitivity - the standard network-level evaluation for IEEE
802.15.4a-class links the paper itself leaves open:

* **interferer-count sweep** - BER versus Eb/N0 for 0 / 1 / 2 / 4
  equal-band interferers at several signal-to-interference ratios.
  At fixed Eb/N0 the BER worsens monotonically with the interferer
  count (each added transmitter injects independent energy into
  randomly-chosen slots).
* **near-far sweep** - one interferer walked toward the victim's
  receiver at fixed Eb/N0.  Relative received power follows the TG4a
  distance power law: an interferer at distance ``d`` against a victim
  at ``d_v`` arrives ``path_loss_db(d_v) - path_loss_db(d)`` dB above
  the victim - the classic near-far aggressor once ``d < d_v``.

Interferers are symbol-rate 2-PPM transmitters with independent
payloads, offset from the victim's symbol clock by fixed sub-slot
fractions (:data:`OFFSET_FRACTIONS`) so pulses never coherently
overlap.  SIR conventions live in :class:`repro.link.spec.InterfererSpec`
(``rel_power_db = -SIR``, calibrated on received pilot energies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.core.scenario import Scenario
from repro.experiments.fig6_ber import BER_DRIVE, WIDE_FRONT_END
from repro.experiments.context import ExperimentContext
from repro.link import (
    FrontEndSpec,
    InterfererSpec,
    LinkSpec,
    NetworkSpec,
    ops,
)
from repro.uwb import UwbConfig
from repro.uwb.channel.ieee802154a import path_loss_db
from repro.uwb.fastsim import AdaptiveStopping, BerResult

#: sub-slot timing offsets per interferer index, as fractions of the
#: PPM slot.  Distinct irrational-ish fractions keep interferer pulses
#: from landing coherently on the victim's (or each other's) pulses,
#: which would otherwise add amplitudes instead of energies.
OFFSET_FRACTIONS = (0.21, 0.41, 0.64, 0.79)

#: offset fraction of the near-far aggressor.
NEAR_FAR_OFFSET_FRACTION = 0.37


def default_victim() -> LinkSpec:
    """The fig6-convention victim link (wide front end, BER drive,
    ideal integrator)."""
    return LinkSpec(config=UwbConfig(),
                    frontend=FrontEndSpec(band=WIDE_FRONT_END,
                                          squarer_drive=BER_DRIVE),
                    integrator="ideal")


def interference_network(victim: LinkSpec, n_interferers: int,
                         sir_db: float) -> NetworkSpec:
    """*victim* plus ``n_interferers`` equal-SIR transmitters at the
    canonical sub-slot offsets."""
    slot = victim.config.slot
    interferers = tuple(
        InterfererSpec(
            rel_power_db=-float(sir_db),
            timing_offset=OFFSET_FRACTIONS[i % len(OFFSET_FRACTIONS)]
            * slot)
        for i in range(n_interferers))
    return NetworkSpec(victim=victim, interferers=interferers)


def near_far_network(victim: LinkSpec, distance: float) -> NetworkSpec:
    """*victim* plus one aggressor at *distance* meters whose relative
    received power follows the TG4a path-loss law.

    The mapping is explicit rather than channel-borne (both links keep
    the victim's ideal-channel decision behavior, only the power ratio
    moves): ``rel_power_db = path_loss_db(d_victim) -
    path_loss_db(d_interferer)``, so an interferer closer than the
    victim's transmitter arrives hotter.
    """
    rel_db = (path_loss_db(victim.channel.distance)
              - path_loss_db(distance))
    aggressor = InterfererSpec(
        rel_power_db=rel_db,
        timing_offset=NEAR_FAR_OFFSET_FRACTION * victim.config.slot)
    return NetworkSpec(victim=victim, interferers=(aggressor,))


@dataclass
class MuiResult:
    """Multi-user interference study results.

    Attributes:
        curves: BER curves of the count sweep keyed by scenario name
            (``"n0"`` baseline, ``"n{count}-sir{sir:g}"`` otherwise).
        near_far: single-point BER results keyed by aggressor distance.
        victim: the victim link spec.
        counts / sir_grid: the scenario grid.
        ebn0_grid: the Eb/N0 grid of the count sweep.
        near_far_ebn0: operating point of the near-far sweep.
    """

    curves: dict[str, BerResult]
    near_far: dict[float, BerResult]
    victim: LinkSpec
    counts: tuple[int, ...]
    sir_grid: tuple[float, ...]
    ebn0_grid: tuple[float, ...]
    near_far_ebn0: float

    @staticmethod
    def scenario_name(n_interferers: int, sir_db: float) -> str:
        if n_interferers == 0:
            return "n0"
        return f"n{n_interferers}-sir{sir_db:g}"

    def count_sweep(self, sir_db: float) -> list[tuple[int, float]]:
        """``(count, BER at the top Eb/N0 point)`` per interferer
        count at *sir_db*."""
        rows = []
        for n in self.counts:
            curve = self.curves[self.scenario_name(n, sir_db)]
            rows.append((n, float(curve.ber[-1])))
        return rows

    @property
    def monotone_in_interferers(self) -> bool:
        """BER worsens monotonically with the interferer count at the
        top Eb/N0 point, for every SIR (within 15% counting slack)."""
        for sir in self.sir_grid:
            bers = [ber for _n, ber in self.count_sweep(sir)]
            if any(b1 < b0 * 0.85 for b0, b1 in zip(bers, bers[1:])):
                return False
            if not bers[-1] > bers[0]:
                return False
        return True

    @property
    def near_far_monotone(self) -> bool:
        """BER relaxes as the aggressor backs away (within 15%
        counting slack)."""
        distances = sorted(self.near_far)
        bers = [float(self.near_far[d].ber[0]) for d in distances]
        return not any(b1 > b0 * 1.15 for b0, b1 in
                       zip(bers, bers[1:]))

    def format_report(self) -> str:
        top = self.ebn0_grid[-1]
        lines = [
            "Multi-user interference - BER over a NetworkSpec "
            "(2-PPM energy detection)",
            f"victim: integrator={self.victim.integrator} "
            f"channel={self.victim.channel.kind} "
            f"drive={self.victim.frontend.squarer_drive:g}V",
            f"interferer count sweep, BER at Eb/N0={top:g}dB:"]
        for sir in self.sir_grid:
            cells = " | ".join(f"n={n}: {ber:.3e}"
                               for n, ber in self.count_sweep(sir))
            lines.append(f"  SIR {sir:g} dB   {cells}")
        lines.append(f"near-far, one aggressor at "
                     f"Eb/N0={self.near_far_ebn0:g}dB (victim at "
                     f"{self.victim.channel.distance:g} m, relative "
                     "power from path_loss_db):")
        for d in sorted(self.near_far):
            curve = self.near_far[d]
            rel_db = (path_loss_db(self.victim.channel.distance)
                      - path_loss_db(d))
            lines.append(f"  d={d:>5.1f} m  SIR={-rel_db:+6.1f} dB  "
                         f"BER={float(curve.ber[0]):.3e}  "
                         f"({int(curve.errors[0])}/"
                         f"{int(curve.bits[0])})")
        for name in sorted(self.curves):
            curve = self.curves[name]
            lines += ["", f"{name} curve (errors / bits / "
                          f"{curve.confidence:.0%} Wilson CI):",
                      curve.format_table()]
        return "\n".join(lines)


def run_mui(victim: LinkSpec | None = None,
            ebn0_grid: Sequence[float] | None = None,
            counts: Sequence[int] = (0, 1, 2, 4),
            sir_grid: Sequence[float] = (0.0, 6.0),
            near_far_distances: Sequence[float] = (3.0, 6.0, 9.9, 15.0),
            near_far_ebn0: float = 12.0,
            seed: int = 11,
            quick: bool = True,
            budget: Mapping[str, Any] | None = None,
            processes: int | None = None,
            adaptive: AdaptiveStopping | None = None,
            store: ResultStore | None = None,
            chunk_bits: int | None = None) -> MuiResult:
    """Run the multi-user interference study.

    Args:
        victim: victim link override (default: the fig6-convention
            link built by :func:`default_victim`; the interferer
            offsets scale with its slot duration).
        ebn0_grid: count-sweep grid (default: budget-dependent).
        counts: interferer counts of the sweep (0 runs once, as the
            shared baseline).
        sir_grid: signal-to-interference ratios of the count sweep.
        near_far_distances: aggressor distances of the near-far sweep.
        near_far_ebn0: fixed operating point of the near-far sweep.
        quick: smaller Monte-Carlo budget (bench default).
        budget: explicit ``target_errors`` / ``max_bits`` /
            ``min_bits`` overrides on top of the *quick* selection.
        processes: fan scenarios out over processes.
        adaptive: per-point sequential stopping policy.
        store: result store for cached/resumable execution (each
            network scenario checkpoints independently).
        chunk_bits: Monte-Carlo chunk size override.
    """
    victim = victim or default_victim()
    if ebn0_grid is None:
        ebn0_grid = (2, 6, 10, 14) if quick \
            else (0, 2, 4, 6, 8, 10, 12, 14)
    ebn0_grid = tuple(float(e) for e in ebn0_grid)
    counts = tuple(int(n) for n in counts)
    sir_grid = tuple(float(s) for s in sir_grid)
    if quick:
        mc = dict(target_errors=50, max_bits=30_000, min_bits=2_000)
    else:
        mc = dict(target_errors=150, max_bits=200_000, min_bits=10_000)
    mc.update(budget or {})
    if chunk_bits is not None:
        mc["chunk_bits"] = chunk_bits

    runner = CampaignRunner(processes=processes, store=store)

    def add(name: str, network: NetworkSpec, grid) -> None:
        runner.add(Scenario(name=name, fn=ops.mui_ber_curve, seed=seed,
                            rng_param="rng",
                            params=dict(network=network, ebn0_grid=grid,
                                        label=name, adaptive=adaptive,
                                        **mc)))

    seen = set()
    for sir in sir_grid:
        for n in counts:
            name = MuiResult.scenario_name(n, sir)
            if name in seen:
                continue  # the n=0 baseline is SIR-independent
            seen.add(name)
            add(name, interference_network(victim, n, sir), ebn0_grid)
    for d in near_far_distances:
        add(f"nearfar-d{d:g}", near_far_network(victim, float(d)),
            (float(near_far_ebn0),))

    by_name = runner.run().by_name()
    curves = {name: by_name[name] for name in seen}
    near_far = {float(d): by_name[f"nearfar-d{d:g}"]
                for d in near_far_distances}
    return MuiResult(curves=curves, near_far=near_far, victim=victim,
                     counts=counts, sir_grid=sir_grid,
                     ebn0_grid=ebn0_grid,
                     near_far_ebn0=float(near_far_ebn0))


def mui_experiment(ctx: ExperimentContext) -> str:
    adaptive = AdaptiveStopping(ber_floor=1e-5 if ctx.full else 1e-4)
    result = run_mui(quick=not ctx.full, processes=ctx.processes,
                     adaptive=adaptive, store=ctx.store,
                     chunk_bits=ctx.chunk_bits,
                     **ctx.seed_kwargs())
    return result.format_report()
