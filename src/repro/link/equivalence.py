"""Golden model versus kernel: the Phase-I validation, mechanized.

The paper validates its behavioral receiver against a golden model:
"we obtained BER curves which perfectly overlapped the Matlab ones".
This harness performs that check between the vectorized golden model
(:func:`~repro.link.ops.golden_packet`) and the AMS kernel testbench
(:func:`~repro.link.ops.run_testbench` on each execution engine) over
the *same* seeded noisy waveform at every point of an Eb/N0 grid:

* the kernel engines must demodulate **bit-identical** decisions
  (they are the same testbench, differently scheduled);
* the kernel BER must agree with the golden-model BER **within the
  Wilson confidence interval** at every point.  Both arms take the
  same 2-PPM decision (:func:`~repro.uwb.adc.decide_slots`) through
  the same converter, but the kernel integrates event-driven slot
  samples where the golden model sums the gated window, so agreement
  is statistical, exactly as in the paper's overlap argument.

With ``integrator="circuit"`` the same harness is the Phase-III check:
the golden arm grades the behavioral surrogate and the kernel arm
co-simulates the transistor netlist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.link.backends import draw_stimulus
from repro.link.ops import golden_packet, run_testbench
from repro.link.spec import FrontEndSpec, LinkSpec
from repro.uwb.config import UwbConfig
from repro.uwb.fastsim import wilson_interval

#: default spec of the equivalence experiment: a light configuration
#: (the check is decision-level, not spectral) with the ideal
#: Phase-II integrator.
DEFAULT_SPEC = LinkSpec(
    config=UwbConfig(fs=8e9, symbol_period=16e-9, pulse_tau=0.225e-9,
                     pulse_order=5, integration_window=2e-9),
    integrator="ideal")

#: spec of the ``phase1`` experiment: the paper-scale configuration,
#: ideal integrator, squarer drive 0.3.
PHASE1_SPEC = LinkSpec(config=UwbConfig(), integrator="ideal",
                       frontend=FrontEndSpec(squarer_drive=0.3))


@dataclass
class EquivalenceResult:
    """Outcome of the golden-model versus kernel comparison on a grid.

    Attributes:
        spec: the link under test.
        ebn0_db: the Eb/N0 grid (dB).
        bits: symbols demodulated by every arm at each point.
        golden_errors: golden-model error count per point.
        kernel_errors: error counts per point, per kernel engine.
        decisions_agreed: symbols, over the whole grid, on which the
            golden model and the first engine decide alike.
        engines_identical: the engines returned identical decisions.

    The agreement test compares 95% Wilson intervals.
    """

    spec: LinkSpec
    ebn0_db: np.ndarray
    bits: int
    golden_errors: np.ndarray
    kernel_errors: dict[str, np.ndarray]
    decisions_agreed: int
    engines_identical: bool = True

    @property
    def golden_ber(self) -> np.ndarray:
        return self.golden_errors / max(self.bits, 1)

    def kernel_ber(self, engine: str) -> np.ndarray:
        return self.kernel_errors[engine] / max(self.bits, 1)

    @property
    def decision_agreement(self) -> float:
        """Share of decisions on which the golden model and the first
        engine agree."""
        return self.decisions_agreed / max(self.bits * len(self.ebn0_db),
                                           1)

    @property
    def max_ber_gap(self) -> float:
        """Largest golden-versus-first-engine BER gap over the grid."""
        first = next(iter(self.kernel_errors))
        return float(np.max(np.abs(self.kernel_ber(first)
                                   - self.golden_ber)))

    def interval(self, errors: int) -> tuple[float, float]:
        return wilson_interval(int(errors), self.bits)

    def _overlap(self, golden: int, kernel: int) -> bool:
        lo_g, hi_g = self.interval(golden)
        lo_k, hi_k = self.interval(kernel)
        return lo_g <= hi_k and lo_k <= hi_g

    def agrees(self, engine: str) -> bool:
        """Wilson intervals of the golden model and *engine* overlap at
        every grid point."""
        return all(map(self._overlap, self.golden_errors,
                       self.kernel_errors[engine]))

    def all_agree(self) -> bool:
        """Every engine agrees with the golden model and the engines
        are bit-identical among themselves."""
        return self.engines_identical and all(
            self.agrees(engine) for engine in self.kernel_errors)

    def format_report(self) -> str:
        lines = ["Golden model vs AMS kernel "
                 f"({self.bits} bits/point, "
                 f"integrator: {self.spec.integrator}, "
                 "95% Wilson CI)",
                 f"{'Eb/N0':>7s}  {'arm':<20s} {'BER':>7s} {'errors':>6s}"]
        for i, ebn0 in enumerate(self.ebn0_db):
            rows = [("golden", self.golden_errors[i], "")]
            rows += [("kernel/" + engine, errors[i],
                      "  agrees" if self._overlap(self.golden_errors[i],
                                                  errors[i])
                      else "  DISAGREES")
                     for engine, errors in self.kernel_errors.items()]
            for j, (arm, errors, mark) in enumerate(rows):
                lo, hi = self.interval(errors)
                point = f"{ebn0:>7.1f}" if j == 0 else " " * 7
                lines.append(f"{point}  {arm:<20s} "
                             f"{errors / max(self.bits, 1):>7.4f} "
                             f"{errors:>6d}  CI [{lo:.4f}, {hi:.4f}]"
                             f"{mark}")
        first = next(iter(self.kernel_errors))
        total = self.bits * len(self.ebn0_db)
        lines.append(f"  decision agreement (golden vs kernel/{first}): "
                     f"{self.decisions_agreed}/{total} "
                     f"({self.decision_agreement:.2%})")
        lines.append(f"  max BER gap:           {self.max_ber_gap:.4f}")
        lines.append(f"  engines bit-identical: {self.engines_identical}")
        lines.append(f"  all backends agree:    {self.all_agree()}")
        return "\n".join(lines)


def decide_burst(spec: LinkSpec, driven: np.ndarray,
                 engines: tuple[str, ...]
                 ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Every arm's decisions on one stimulus from
    :func:`~repro.link.backends.draw_stimulus`: ``(golden, kernel)``,
    the golden-model bits and the kernel bits per engine."""
    golden = golden_packet(spec, driven).bits
    kernel = {engine: run_testbench(spec, driven, engine=engine).bits
              for engine in engines}
    return golden, kernel


def run_equivalence(spec: LinkSpec = DEFAULT_SPEC,
                    ebn0_grid=(6.0,),
                    bits: int = 150,
                    seed: int = 23,
                    engines: tuple[str, ...] = ("compiled", "reference")
                    ) -> EquivalenceResult:
    """Demodulate one seeded noisy burst per grid point on every arm.

    One generator draws every point's stimulus (bits, noise, band-pass,
    drive scaling) with :func:`~repro.link.backends.draw_stimulus`, in
    grid order, and :func:`decide_burst` grades it, so all arms decide
    on the *same* samples: the comparison is substitute-and-play at
    the decision level, not merely statistical across independent
    runs.
    """
    if not engines:
        raise ValueError("need at least one kernel engine")
    rng = np.random.default_rng(seed)
    golden_errors, agreed, identical = [], 0, True
    kernel_errors: dict[str, list[int]] = {engine: [] for engine in engines}
    for ebn0 in ebn0_grid:
        tx, driven = draw_stimulus(spec, ebn0, bits, rng)
        golden, kernel = decide_burst(spec, driven, engines)
        golden_errors.append(np.count_nonzero(golden != tx))
        for engine, decided in kernel.items():
            kernel_errors[engine].append(np.count_nonzero(decided != tx))
        first, *others = kernel.values()
        agreed += int(np.count_nonzero(golden == first))
        identical = identical and all(np.array_equal(first, other)
                                      for other in others)
    return EquivalenceResult(
        spec=spec, ebn0_db=np.asarray(ebn0_grid, dtype=float), bits=bits,
        golden_errors=np.asarray(golden_errors),
        kernel_errors={engine: np.asarray(errors)
                       for engine, errors in kernel_errors.items()},
        decisions_agreed=agreed, engines_identical=identical)
