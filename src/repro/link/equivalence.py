"""Golden model versus kernel: the Phase-I validation, mechanized.

The paper validates its behavioral receiver against a golden model:
"we obtained BER curves which perfectly overlapped the Matlab ones".
This harness performs that check between the vectorized golden model
(:func:`~repro.link.ops.golden_packet`) and the AMS kernel testbench
(:func:`~repro.link.ops.run_testbench` on each execution engine) over
the *same* seeded noisy waveform:

* the two kernel engines must demodulate **bit-identical** decisions
  (they are the same testbench, differently scheduled);
* the kernel BER must agree with the golden-model BER **within the
  Wilson confidence interval**.  Both arms take the same 2-PPM decision
  (:func:`~repro.uwb.adc.decide_slots`) through the same converter,
  but the kernel integrates event-driven slot samples where the golden
  model sums the gated window, so agreement is statistical, exactly as
  in the paper's overlap argument.

:func:`decide_burst` is the per-burst comparison; the Phase-I
experiment (:mod:`repro.experiments.phase1_overlap`) runs it over an
Eb/N0 grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.link.backends import draw_stimulus
from repro.link.ops import golden_packet, run_testbench
from repro.link.spec import LinkSpec
from repro.uwb.config import UwbConfig
from repro.uwb.fastsim import wilson_interval

#: default spec of the equivalence experiment: a light configuration
#: (the check is decision-level, not spectral) with the ideal
#: Phase-II integrator.
DEFAULT_SPEC = LinkSpec(
    config=UwbConfig(fs=8e9, symbol_period=16e-9, pulse_tau=0.225e-9,
                     pulse_order=5, integration_window=2e-9),
    integrator="ideal")


@dataclass
class EquivalenceResult:
    """Outcome of one golden-model versus kernel comparison.

    Attributes:
        spec: the link under test.
        ebn0_db: operating point.
        bits: symbols demodulated by every arm.
        fastsim_errors: golden-model error count.
        kernel_errors: error count per kernel engine.
        engines_identical: both engines returned identical decisions.
        confidence: Wilson confidence level of the agreement test.
    """

    spec: LinkSpec
    ebn0_db: float
    bits: int
    fastsim_errors: int
    kernel_errors: dict[str, int] = field(default_factory=dict)
    engines_identical: bool = True
    confidence: float = 0.95

    @property
    def fastsim_ber(self) -> float:
        return self.fastsim_errors / max(self.bits, 1)

    def kernel_ber(self, engine: str) -> float:
        return self.kernel_errors[engine] / max(self.bits, 1)

    def interval(self, errors: int) -> tuple[float, float]:
        return wilson_interval(errors, self.bits, self.confidence)

    def agrees(self, engine: str) -> bool:
        """Wilson intervals of the golden model and *engine* overlap."""
        lo_f, hi_f = self.interval(self.fastsim_errors)
        lo_k, hi_k = self.interval(self.kernel_errors[engine])
        return lo_f <= hi_k and lo_k <= hi_f

    def all_agree(self) -> bool:
        """Every engine agrees with the golden model and the engines
        are bit-identical among themselves."""
        return self.engines_identical and all(
            self.agrees(engine) for engine in self.kernel_errors)

    def format_report(self) -> str:
        lines = ["Cross-backend equivalence - fastsim vs AMS kernel "
                 f"(Eb/N0 = {self.ebn0_db:g} dB, {self.bits} bits, "
                 f"integrator: {self.spec.integrator})"]
        lo, hi = self.interval(self.fastsim_errors)
        lines.append(f"  {'fastsim':<20s} BER {self.fastsim_ber:.4f} "
                     f"({self.fastsim_errors:4d} errors)  "
                     f"CI [{lo:.4f}, {hi:.4f}]")
        for engine, errors in sorted(self.kernel_errors.items()):
            lo, hi = self.interval(errors)
            mark = "agrees" if self.agrees(engine) else "DISAGREES"
            lines.append(f"  {'kernel/' + engine:<20s} BER "
                         f"{self.kernel_ber(engine):.4f} "
                         f"({errors:4d} errors)  "
                         f"CI [{lo:.4f}, {hi:.4f}]  {mark}")
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


def run_equivalence(spec: LinkSpec | None = None,
                    ebn0_db: float = 6.0,
                    bits: int = 150,
                    seed: int = 23,
                    engines: tuple[str, ...] = ("compiled", "reference"),
                    confidence: float = 0.95) -> EquivalenceResult:
    """Demodulate one seeded noisy burst on every arm.

    The stimulus (bits, noise, band-pass, drive scaling) is drawn once
    by :func:`~repro.link.backends.draw_stimulus`, so all arms decide
    on the *same* samples: the comparison is substitute-and-play at
    the decision level, not merely statistical across independent
    runs.
    """
    spec = spec if spec is not None else DEFAULT_SPEC
    tx, driven = draw_stimulus(spec, ebn0_db, bits,
                               np.random.default_rng(seed))

    golden, kernel = decide_burst(spec, driven, engines)
    decisions = list(kernel.values())
    return EquivalenceResult(
        spec=spec, ebn0_db=float(ebn0_db), bits=bits,
        fastsim_errors=int(np.count_nonzero(golden != tx)),
        kernel_errors={engine: int(np.count_nonzero(decided != tx))
                       for engine, decided in kernel.items()},
        engines_identical=all(np.array_equal(decisions[0], other)
                              for other in decisions[1:]),
        confidence=confidence)
