"""Table 1: CPU time of a system simulation per integrator model.

Paper (30 us simulated, 0.05 ns fixed step, IBM Xeon 3.0 GHz):

    ELDO      59 m 33 s   (6.5x IDEAL, 2.9x VHDL-AMS)
    VHDL-AMS  20 m 37 s   (2.2x IDEAL)
    IDEAL      9 m 11 s

We run the same mixed-signal receiver testbench with the three
integrator back ends and report wall-clock time and ratios.  The claim
under test is the *ordering* and the existence of a large
circuit-in-the-loop penalty; absolute ratios differ because our
behavioral blocks are far cheaper relative to a matrix solve than
VHDL-AMS equation systems executed by ADMS (see EXPERIMENTS.md).

The behavioral rows run on the kernel's compiled (segment-vectorized)
execution engine; the ELDO row always runs lock-step because
the Spice block opts out of vectorization - exactly the cost structure
the paper reports, with the gap widened by the compiled engine.  When
``measure_reference`` is on (the default), the IDEAL row is re-run on
the lock-step reference engine so the report also tracks the
engine-vs-engine speedup and checks bit-identical demodulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore
from repro.core.metrics import CpuTimeReport
from repro.core.scenario import Scenario
from repro.experiments.context import ExperimentContext
from repro.link import ops
from repro.link.backends import build_bpf
from repro.link.spec import LinkSpec
from repro.uwb.config import UwbConfig
from repro.uwb.modulation import ppm_waveform, random_bits
from repro.uwb.system import AmsRunResult

#: (report label, integrator spec) rows of the table.
MODEL_ROWS = (("IDEAL", "ideal"), ("VHDL-AMS", "two_pole"),
              ("ELDO", "circuit"))


@dataclass
class Table1Result:
    """CPU-time table + per-model demodulated bits (sanity check)."""

    report: CpuTimeReport
    bits: dict[str, np.ndarray]
    tx_bits: np.ndarray
    engine: str = "compiled"
    #: lock-step timings of re-measured rows (engine speedup tracking).
    reference_times: dict[str, float] = field(default_factory=dict)
    #: best compiled timings over the speedup repeats (robust ratio
    #: numerator/denominator; the table entry itself is a single run).
    compiled_times: dict[str, float] = field(default_factory=dict)
    #: demodulated bits of the lock-step re-runs.
    reference_bits: dict[str, np.ndarray] = field(default_factory=dict)

    PAPER = {"ELDO": 59 * 60 + 33, "VHDL-AMS": 20 * 60 + 37,
             "IDEAL": 9 * 60 + 11}

    def cosim_dominates(self) -> bool:
        """The headline claim: transistor-in-the-loop costs a large
        multiple of either behavioral model."""
        e = self.report.entries
        return (e["ELDO"] > 2.0 * e["VHDL-AMS"]
                and e["ELDO"] > 2.0 * e["IDEAL"])

    def model_vs_ideal_ratio(self) -> float:
        """VHDL-AMS model cost over IDEAL cost (paper: ~2.2x; here the
        behavioral blocks are so cheap relative to kernel overhead that
        the gap may vanish - see EXPERIMENTS.md)."""
        e = self.report.entries
        return e["VHDL-AMS"] / e["IDEAL"]

    def engine_speedup(self, label: str = "IDEAL") -> float | None:
        """Compiled-over-reference wall-clock speedup for *label*
        (``None`` when the reference row was not measured).  Uses the
        best-of-N timings of both engines so a single scheduler stall
        cannot flip the ratio."""
        ref = self.reference_times.get(label)
        if ref is None:
            return None
        compiled = self.compiled_times.get(label,
                                           self.report.entries[label])
        return ref / compiled

    def engines_agree(self) -> bool:
        """Both engines demodulated identical bits on every re-measured
        row (vacuously true when nothing was re-measured)."""
        return all(np.array_equal(self.bits[label], ref_bits)
                   for label, ref_bits in self.reference_bits.items())

    def format_report(self) -> str:
        paper_ratio = {k: v / self.PAPER["IDEAL"]
                       for k, v in self.PAPER.items()}
        lines = [
            "Table 1 - CPU time comparison "
            f"(engine: {self.engine})",
            self.report.format_table(),
            "  paper ratios: "
            + ", ".join(f"{k} {v:.1f}x" for k, v in paper_ratio.items()),
            f"  circuit-in-the-loop dominates: {self.cosim_dominates()}",
            f"  VHDL-AMS / IDEAL ratio: {self.model_vs_ideal_ratio():.2f}x"
            " (paper: 2.2x)",
        ]
        speedup = self.engine_speedup()
        if speedup is not None:
            lines.append(
                f"  compiled-vs-reference speedup (IDEAL): "
                f"{speedup:.1f}x, identical bits: {self.engines_agree()}")
        return "\n".join(lines)


def make_table1_waveform(config: UwbConfig, n_symbols: int,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The shared Table-1 stimulus: a lightly noisy filtered 2-PPM
    burst, normalized to a fixed squarer drive."""
    rng = np.random.default_rng(seed)
    tx_bits = random_bits(n_symbols, rng)
    wave = ppm_waveform(tx_bits, config, amplitude=1.0)
    wave = wave + rng.normal(0.0, 0.01, size=len(wave))
    bpf = build_bpf(LinkSpec(config=config))
    sig = bpf(wave)
    sig = 0.25 * sig / np.max(np.abs(sig))
    return sig, tx_bits


def table1_row(spec: LinkSpec, n_symbols: int, stimulus_seed: int,
               **testbench) -> AmsRunResult:
    """One cached Table-1 row: :func:`repro.link.ops.run_testbench`
    over the stimulus of :func:`make_table1_waveform`.

    The scenario names its stimulus by symbol count and seed, not by
    its samples, so the row's content address does not depend on the
    last bits of the band-pass (the filter's matrix products round
    differently on different BLAS kernels)."""
    waveform, _bits = make_table1_waveform(spec.config, n_symbols,
                                           stimulus_seed)
    return ops.run_testbench(spec, waveform, **testbench)


def run_table1(simulated_time: float = 1e-6,
               seed: int = 11,
               measure_reference: bool = True,
               processes: int | None = None,
               store: ResultStore | None = None) -> Table1Result:
    """Regenerate table 1.

    Args:
        simulated_time: simulated span (paper: 30 us; default 1 us keeps
            the benchmark minutes-scale - the ratios are span-invariant
            beyond a few symbols).
        measure_reference: additionally time the IDEAL row on the
            lock-step reference engine (engine speedup + equivalence),
            three repeats per engine (the best of each side is used, so
            one scheduler stall in a milliseconds-scale run cannot skew
            the ratio).
        processes: fan the rows out over processes.  Defaults to serial
            execution, which is what a CPU-time comparison wants -
            parallel rows contend for cores and skew the table.
        store: result store for cached/resumable execution.  Note that
            cached rows report the *original* run's CPU time - exactly
            what a bookkept measurement campaign wants, but pass
            ``store=None`` (or clear the cache) to re-measure.
    """
    config = UwbConfig()
    n_symbols = max(2, int(round(simulated_time / config.symbol_period)))
    sig, tx_bits = make_table1_waveform(config, n_symbols, seed)
    span = n_symbols * config.symbol_period

    runner = CampaignRunner(processes=processes, store=store)
    for label, kind in MODEL_ROWS:
        runner.add(Scenario(
            name=label, fn=table1_row,
            params=dict(spec=LinkSpec(config=config, integrator=kind),
                        n_symbols=n_symbols, stimulus_seed=seed,
                        t_stop=span)))
    if measure_reference:
        ideal_spec = LinkSpec(config=config, integrator="ideal")
        for i in range(3):
            for eng in ("reference", "compiled"):
                # cache=False: the repeats are independent timing
                # samples; under a store their identical content would
                # collapse onto one entry and fake the best-of-N.
                runner.add(Scenario(
                    name=f"IDEAL/{eng}#{i}", fn=ops.run_testbench,
                    cache=False,
                    params=dict(spec=ideal_spec, waveform=sig,
                                t_stop=span, engine=eng)))

    outcomes = runner.run().by_name()
    report = CpuTimeReport(simulated_time=span)
    bits: dict[str, np.ndarray] = {}
    reference_times: dict[str, float] = {}
    compiled_times: dict[str, float] = {}
    reference_bits: dict[str, np.ndarray] = {}
    for label, _kind in MODEL_ROWS:
        result = outcomes[label]
        report.add(label, result.cpu_time)
        bits[label] = result.bits
    if measure_reference:
        ref_runs = [v for k, v in outcomes.items()
                    if k.startswith("IDEAL/reference#")]
        eng_runs = [v for k, v in outcomes.items()
                    if k.startswith("IDEAL/compiled#")]
        reference_times["IDEAL"] = min(r.cpu_time for r in ref_runs)
        reference_bits["IDEAL"] = ref_runs[0].bits
        compiled_times["IDEAL"] = min(
            [r.cpu_time for r in eng_runs]
            + [report.entries["IDEAL"]])
    return Table1Result(report=report, bits=bits, tx_bits=tx_bits,
                        reference_times=reference_times,
                        compiled_times=compiled_times,
                        reference_bits=reference_bits)


def table1_experiment(ctx: ExperimentContext) -> str:
    # measure_reference repeats are uncacheable timing samples; skip
    # them here so a completed table-1 campaign re-runs with zero
    # executions (benchmarks/ still track the engine speedup).
    result = run_table1(simulated_time=2e-6 if ctx.full else 1e-6,
                        processes=ctx.processes,
                        measure_reference=False, store=ctx.store,
                        **ctx.seed_kwargs())
    return result.format_report()
