"""The benchmark's workloads: inputs from a seed, set-up, one timed
operation and the output checks that can fail.

Every workload is fixed-work: ``target_errors`` sits above ``max_bits``
and ``min_bits == max_bits`` with no adaptive stopping, so a kernel that
shifts error counts cannot change how much work an operation does.
Each operation reports its work units and the checks compare them with
the workload's declared amount.

An operation receives a ``section`` callable (a context-manager factory
naming the part of the operation that runs inside it); untraced runs
pass :func:`no_section`.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.campaign.runner import CampaignRunner
from repro.campaign.shard import ShardedResultStore
from repro.core.scenario import Scenario
from repro.experiments.fig6_ber import BER_DRIVE, WIDE_FRONT_END
from repro.experiments.mui_network import (
    default_victim,
    interference_network,
    run_mui,
)
from repro.experiments.table1_cpu import MODEL_ROWS, make_table1_waveform
from repro.link import FrontEndSpec, LinkSpec, ops
from repro.link.backends import build_interferer_paths, calibrate
from repro.uwb import UwbConfig
from repro.uwb.fastsim import wilson_interval
from repro.uwb.system import build_ams_receiver

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

#: two-sided confidence of the Wilson intervals compared by the BER
#: reference check.  A cell is off-reference when its interval and the
#: reference's are disjoint; at this level a correct program trips the
#: check in about one run of ten thousand over the 48 checked cells.
REFERENCE_CONFIDENCE = 0.9999


@contextlib.contextmanager
def no_section(_name: str):
    yield


def fixed_budget(bits: int) -> dict[str, int]:
    """A Monte-Carlo budget that always simulates exactly *bits* per
    cell: the error target can never be reached first."""
    return dict(target_errors=bits + 1, max_bits=bits, min_bits=bits)


@dataclass
class OpResult:
    """One timed operation.

    Attributes:
        wall_s: wall time of the workload's primary operation.
        unit_s: host seconds per work unit on the hot path.
        units: work units done (checked against the declared amount).
        cells: ``{cell name: (errors, bits)}`` Monte-Carlo counters.
        problems: failed output checks (empty when correct).
        total_s: wall time of everything the operation ran (defaults
            to ``wall_s``; the traced-wall base of the trace metrics).
        speed: the machine's slowness around the operation, relative
            to nominal (set by the runner's speed probe); wall times
            divided by it are the reported, drift-corrected times.
    """

    wall_s: float
    unit_s: float
    units: int
    cells: dict[str, tuple[int, int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    total_s: float | None = None
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.total_s is None:
            self.total_s = self.wall_s


def off_reference(cells: dict[str, tuple[int, int]],
                  reference: dict[str, tuple[int, int]],
                  confidence: float = REFERENCE_CONFIDENCE) -> list[str]:
    """Cells whose Wilson interval is disjoint from the reference
    counts' interval (missing cells count as off)."""
    off = []
    for name, (ref_errors, ref_bits) in reference.items():
        if name not in cells:
            off.append(name)
            continue
        errors, bits = cells[name]
        lo, hi = wilson_interval(int(errors), int(bits), confidence)
        ref_lo, ref_hi = wilson_interval(int(ref_errors), int(ref_bits),
                                         confidence)
        if hi < ref_lo or lo > ref_hi:
            off.append(name)
    return off


def load_reference(workload: str) -> dict[str, tuple[int, int]]:
    record = json.loads(REFERENCE_PATH.read_text())[workload]
    return {name: (int(e), int(b)) for name, (e, b) in
            record["cells"].items()}


class Workload:
    """Base class: subclasses build inputs from the seed in
    ``__init__`` and implement :meth:`setup` and :meth:`op`.  Files a
    workload writes go under *workdir* (the system temp directory when
    ``None``)."""

    name = ""
    #: what one work unit is (documentation and reports).
    unit = ""
    #: reference counts are checked for this workload.
    checks_reference = False
    #: times are corrected for machine drift by the runner's speed
    #: probe; it follows bytecode-bound work only (see README.md).
    drift_corrected = False

    def __init__(self, seed: int, workdir: Path | None = None):
        self.seed = int(seed)
        self.workdir = workdir
        self._first_cells: dict[str, tuple[int, int]] | None = None
        self._reference: dict[str, tuple[int, int]] | None = None
        self.last_off_reference = 0

    def setup(self) -> None:
        """The fixed cost a user pays before the first operation."""

    def op(self, section: Callable = no_section) -> OpResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload created."""

    def check(self, result: OpResult) -> OpResult:
        """Checks shared by every workload: counters repeat exactly
        across operations on one seed, and (where recorded) every cell
        agrees with the reference counts."""
        if self._first_cells is None:
            self._first_cells = dict(result.cells)
        elif result.cells != self._first_cells:
            result.problems.append("counters differ between operations "
                                   "on the same inputs")
        if self.checks_reference:
            if self._reference is None:
                self._reference = load_reference(self.name)
            off = off_reference(result.cells, self._reference)
            self.last_off_reference = len(off)
            if off:
                result.problems.append(
                    f"{len(off)} cells off reference: {', '.join(off)}")
        return result


def _curve_cells(prefix: str, curve) -> dict[str, tuple[int, int]]:
    return {f"{prefix}@{float(e):g}dB": (int(err), int(n))
            for e, err, n in zip(curve.ebn0_db, curve.errors, curve.bits)}


def _check_bits(result: OpResult, bits: int) -> None:
    wrong = sorted(name for name, (_e, n) in result.cells.items()
                   if n != bits)
    if wrong:
        result.problems.append(
            f"cells not at the declared {bits} bits: {', '.join(wrong)}")


def fig6_spec(config: UwbConfig | None = None) -> LinkSpec:
    """The fig6 AWGN link: wide front end at the BER drive."""
    return LinkSpec(config=config or UwbConfig(),
                    frontend=FrontEndSpec(band=WIDE_FRONT_END,
                                          squarer_drive=BER_DRIVE),
                    integrator="ideal")


class BerFig6(Workload):
    """The Fig. 6 paired sweep through ``ops.ber_sweep``: ideal and
    circuit integrators over 8 Eb/N0 points on one shared front end."""

    name = "ber_fig6"
    unit = "graded cell-bit"
    checks_reference = True
    GRID = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
    INTEGRATORS = ("ideal", "circuit")
    BITS = 20_000

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, workdir)
        self.spec = fig6_spec()
        self.cells_declared = len(self.GRID) * len(self.INTEGRATORS)

    def setup(self) -> None:
        calibrate(self.spec)

    def op(self, section: Callable = no_section) -> OpResult:
        rng = np.random.default_rng(self.seed)
        start = time.perf_counter()
        curves = ops.ber_sweep(self.spec, self.GRID, rng,
                               integrators=self.INTEGRATORS,
                               labels=self.INTEGRATORS,
                               **fixed_budget(self.BITS))
        wall = time.perf_counter() - start
        cells: dict[str, tuple[int, int]] = {}
        for label in self.INTEGRATORS:
            cells.update(_curve_cells(label, curves[label]))
        units = sum(n for _e, n in cells.values())
        result = OpResult(wall_s=wall, unit_s=wall / max(units, 1),
                          units=units, cells=cells)
        _check_bits(result, self.BITS)
        if len(cells) != self.cells_declared:
            result.problems.append(f"{len(cells)} cells, expected "
                                   f"{self.cells_declared}")
        return result


class BerMui(Workload):
    """The mui campaign (``run_mui``: interferer-count and near-far
    ``NetworkSpec`` scenarios, ideal integrator) through
    ``CampaignRunner`` against a fresh ``ShardedResultStore``: a cold
    pass that executes and puts every scenario, then a replay pass
    that hits on every one.  The cold pass is the timed operation; the
    replay keeps the store's read path in the traced breakdown."""

    name = "ber_mui"
    unit = "graded cell-bit"
    checks_reference = True
    BITS = 6_000
    #: 7 count-sweep curves x 4 Eb/N0 points + 4 near-far points.
    CELLS = 32
    #: the 7 curves and 4 near-far points are one scenario each.
    SCENARIOS = 11

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, workdir)
        self._root = Path(tempfile.mkdtemp(prefix="stores-", dir=workdir))
        self._count = 0

    def _store(self, fresh: bool) -> ShardedResultStore:
        self._count += fresh
        return ShardedResultStore(self._root / f"store-{self._count}")

    def setup(self) -> None:
        victim = default_victim()
        cache = calibrate(victim)
        for n, sir in ((1, 0.0), (2, 6.0), (4, 0.0)):
            build_interferer_paths(interference_network(victim, n, sir),
                                   cache=cache)
        self._store(fresh=True)

    def _run(self, store: ShardedResultStore):
        return run_mui(seed=self.seed, budget=fixed_budget(self.BITS),
                       store=store)

    def op(self, section: Callable = no_section) -> OpResult:
        # Spent stores stay on disk until close(), so no deletion loads
        # the file system while an operation is timed.
        cold_store = self._store(fresh=True)
        start = time.perf_counter()
        with section("cold"):
            mui = self._run(cold_store)
        wall = time.perf_counter() - start
        replay_store = self._store(fresh=False)
        start = time.perf_counter()
        with section("replay"):
            replayed = self._run(replay_store)
        replay_wall = time.perf_counter() - start
        cells = _mui_cells(mui)
        units = sum(n for _e, n in cells.values())
        result = OpResult(wall_s=wall, unit_s=wall / max(units, 1),
                          units=units, cells=cells,
                          total_s=wall + replay_wall)
        _check_bits(result, self.BITS)
        if len(cells) != self.CELLS:
            result.problems.append(f"{len(cells)} cells, expected "
                                   f"{self.CELLS}")
        n = self.SCENARIOS
        if (cold_store.misses, cold_store.hits) != (n, 0):
            result.problems.append(
                f"cold pass missed {cold_store.misses} and hit "
                f"{cold_store.hits} of {n} scenarios")
        if (replay_store.misses, replay_store.hits) != (0, n):
            result.problems.append(
                f"replay pass missed {replay_store.misses} and hit "
                f"{replay_store.hits} of {n} scenarios")
        if _mui_cells(replayed) != cells:
            result.problems.append(
                "replayed results differ from the cold pass")
        return result

    def close(self) -> None:
        shutil.rmtree(self._root, ignore_errors=True)


def _mui_cells(mui) -> dict[str, tuple[int, int]]:
    cells: dict[str, tuple[int, int]] = {}
    for name, curve in mui.curves.items():
        cells.update(_curve_cells(name, curve))
    for distance, curve in mui.near_far.items():
        cells.update(_curve_cells(f"nearfar-d{distance:g}", curve))
    return cells


class CosimTable1(Workload):
    """The Table 1 testbench through ``ops.run_testbench``: IDEAL,
    VHDL-AMS and ELDO rows over one short span."""

    name = "cosim_table1"
    unit = "ELDO-row kernel step"
    #: the lock-step loop runs one small Newton solve per step.
    drift_corrected = True
    SIMULATED_TIME = 0.2e-6

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, workdir)
        self.config = UwbConfig()
        n_symbols = max(2, int(round(self.SIMULATED_TIME
                                     / self.config.symbol_period)))
        self.span = n_symbols * self.config.symbol_period
        self.waveform, self.tx_bits = make_table1_waveform(
            self.config, n_symbols, self.seed)
        #: the lock-step kernel takes one step per sample of the span.
        self.steps_declared = int(round(self.span / self.config.dt))

    def setup(self) -> None:
        build_ams_receiver(self.config, "circuit", self.waveform)

    def op(self, section: Callable = no_section) -> OpResult:
        rows = {}
        walls = {}
        start = time.perf_counter()
        for label, kind in MODEL_ROWS:
            row_start = time.perf_counter()
            rows[label] = ops.run_testbench(
                LinkSpec(config=self.config, integrator=kind),
                self.waveform, t_stop=self.span, engine="compiled")
            walls[label] = time.perf_counter() - row_start
        wall = time.perf_counter() - start
        steps = int(rows["ELDO"].steps)
        result = OpResult(wall_s=wall, unit_s=walls["ELDO"] / max(steps, 1),
                          units=steps)
        result.problems += table1_problems(rows, self.tx_bits,
                                           self.steps_declared)
        result.cells = {f"{label}.bits": (int(np.sum(r.bits)),
                                          int(len(r.bits)))
                        for label, r in rows.items()}
        return result


def table1_problems(rows: dict, tx_bits: np.ndarray,
                    steps_declared: int) -> list[str]:
    """Table-1 output checks on ``{label: AmsRunResult}``: the ELDO
    row runs the declared steps and demodulates ``tx_bits``, and costs
    more than twice either behavioral row."""
    problems = []
    eldo = rows["ELDO"]
    if int(eldo.steps) != steps_declared:
        problems.append(f"ELDO row took {int(eldo.steps)} steps, "
                        f"expected {steps_declared}")
    if not np.array_equal(eldo.bits, tx_bits):
        problems.append("ELDO-row bits differ from tx_bits")
    cpu = {label: float(r.cpu_time) for label, r in rows.items()}
    if not (cpu["ELDO"] > 2.0 * cpu["VHDL-AMS"]
            and cpu["ELDO"] > 2.0 * cpu["IDEAL"]):
        problems.append(f"Table-1 ordering broken: {cpu}")
    return problems


class CampaignStore(Workload):
    """A few hundred tiny-budget ``ops.mui_ber_curve`` scenarios run
    twice against a fresh ``ShardedResultStore``: the cold pass
    executes and puts, the replay pass hits on every scenario."""

    name = "campaign_store"
    unit = "replayed scenario"
    #: hashing, JSON and per-scenario Python overhead dominate.
    drift_corrected = True
    SCENARIOS = 300
    BITS = 200
    SIR_DB = (0.0, 3.0, 6.0, 10.0)
    EBN0_DB = (4.0, 8.0, 12.0)

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(self.seed)
        victim = default_victim()
        self.victim = victim
        self.scenarios = []
        for i in range(self.SCENARIOS):
            n = int(rng.integers(0, 3))
            sir = float(rng.choice(self.SIR_DB))
            ebn0 = float(rng.choice(self.EBN0_DB))
            self.scenarios.append(Scenario(
                name=f"s{i:03d}", fn=ops.mui_ber_curve,
                seed=int(rng.integers(2 ** 31)), rng_param="rng",
                params=dict(network=interference_network(victim, n, sir),
                            ebn0_grid=(ebn0,), label=f"s{i:03d}",
                            chunk_bits=self.BITS,
                            **fixed_budget(self.BITS))))
        self._root = Path(tempfile.mkdtemp(prefix="campaign-",
                                           dir=workdir))
        self._count = 0

    def _fresh_root(self) -> Path:
        self._count += 1
        return self._root / f"store-{self._count}"

    def setup(self) -> None:
        ShardedResultStore(self._fresh_root())
        calibrate(self.victim)

    def op(self, section: Callable = no_section) -> OpResult:
        # Spent stores stay on disk until close(): deleting thousands of
        # files between operations would load the file system while the
        # next operation is timed.
        root = self._fresh_root()
        start = time.perf_counter()
        with section("cold"):
            cold = CampaignRunner(self.scenarios,
                                  store=ShardedResultStore(root)).run()
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        with section("replay"):
            replay = CampaignRunner(self.scenarios,
                                    store=ShardedResultStore(root)).run()
        replay_wall = time.perf_counter() - start
        n = len(self.scenarios)
        result = OpResult(wall_s=cold_wall, unit_s=replay_wall / n,
                          units=replay.cached,
                          total_s=cold_wall + replay_wall)
        result.problems += replay_problems(cold, replay, n)
        result.cells = _report_cells(cold)
        _check_bits(result, self.BITS)
        return result

    def close(self) -> None:
        shutil.rmtree(self._root, ignore_errors=True)


def _report_cells(report) -> dict[str, tuple[int, int]]:
    return {r.name: (int(r.value.errors[0]), int(r.value.bits[0]))
            for r in report.results}


def replay_problems(cold, replay, n: int) -> list[str]:
    """Campaign checks: the cold pass executes all *n* scenarios, the
    replay pass executes none and returns the cold pass's results."""
    problems = []
    if (cold.executed, cold.cached) != (n, 0):
        problems.append(f"cold pass executed {cold.executed} and "
                        f"cached {cold.cached} of {n}")
    if (replay.executed, replay.cached) != (0, n):
        problems.append(f"replay pass executed {replay.executed} "
                        f"and cached {replay.cached} of {n}")
    if _report_cells(replay) != _report_cells(cold):
        problems.append("replayed results differ from the cold pass")
    return problems


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (BerFig6, BerMui, CosimTable1, CampaignStore)}


def make(name: str, seed: int, workdir: Path | None = None) -> Workload:
    """The workload *name* with inputs made from *seed*."""
    return WORKLOADS[name](seed, workdir)
