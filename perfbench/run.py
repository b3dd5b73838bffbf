"""Repository benchmark: one workload per run, end-to-end metrics from
untraced operations, per-layer metrics from a separate traced run.

Run from the repository root::

    python3 perfbench/run.py --workload ber_fig6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Load model: closed loop, one client, serial, one process; BLAS threads
pinned to 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
in this directory for the metrics and what each workload exercises.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOAD_NAMES = ("ber_fig6", "ber_mui", "cosim_table1", "campaign_store")

#: (name, unit) of every end-to-end metric.
END_TO_END = (("op_ms", "ms"), ("unit_us", "us"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

#: fresh set-up processes per untraced run (``setup_s`` is their
#: median).
SETUP_PROBES = 3
#: minimum timed operations per phase, whatever ``--seconds`` says.
MIN_OPS = 3
#: share of a traced run's time spent on untraced operations (the
#: baseline of ``trace_overhead_frac``).
UNTRACED_SHARE = 0.35
#: seconds :func:`speed_probe` took on the machine the benchmark was
#: defined on (2-vCPU x86_64 VM, CPython 3.11).
PROBE_NOMINAL_S = 0.050


def speed_probe() -> float:
    """Seconds of a fixed bytecode loop (integer arithmetic and dict
    stores) that uses no repository code.

    The machine's speed drifts by tens of percent over tens of seconds
    when other tenants load it.  Timed right before and after each
    operation of an interpreter-bound workload, the probe tells how slow
    the machine was meanwhile (see :meth:`Runner.op`); a change to the
    program cannot move it."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(400_000):
        total += i * i
        table[i & 255] = total
    return time.perf_counter() - start


def _import_path() -> None:
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))


def setup_probe(name: str, seed: int, workdir: Path) -> None:
    """Fresh-process set-up: imports, inputs and the workload's fixed
    costs; prints the seconds since interpreter start-up finished."""
    import workloads

    workload = workloads.make(name, seed, workdir)
    try:
        workload.setup()
    finally:
        workload.close()
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def _probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Drift-corrected set-up seconds of one fresh process (set-up is
    imports and Python-level construction, which the probe follows)."""
    before = speed_probe()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         name, "--seed", str(seed), "--setup-probe"],
        cwd=str(ROOT), capture_output=True, text=True, check=True,
        env=dict(os.environ, PERFBENCH_WORKDIR=str(workdir)),
        timeout=120)
    speed = 0.5 * (before + speed_probe()) / PROBE_NOMINAL_S
    return float(json.loads(out.stdout.strip().splitlines()[-1])
                 ["setup_s"]) / speed


class Runner:
    """Runs operations of one workload and counts attempts and
    failures (an exception or a failed output check)."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.off_reference = 0

    def op(self, section=None):
        from workloads import no_section

        self.attempted += 1
        corrected = self.workload.drift_corrected
        try:
            before = speed_probe() if corrected else 0.0
            cpu, start = os.times(), time.perf_counter()
            result = self.workload.op(section or no_section)
            elapsed = max(time.perf_counter() - start, 1e-9)
            user_share = min(1.0, (os.times().user - cpu.user) / elapsed)
            if corrected:
                # The probe runs in user mode, so it speaks for the
                # user-mode share of the operation; kernel and waiting
                # time stay as measured.
                slowness = 0.5 * (before + speed_probe()) / PROBE_NOMINAL_S
                result.speed = 1.0 + user_share * (slowness - 1.0)
            result = self.workload.check(result)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.off_reference = max(self.off_reference,
                                 self.workload.last_off_reference)
        if result.problems:
            self.failed += 1
            for problem in result.problems:
                print(f"perfbench: check failed: {problem}",
                      file=sys.stderr)
            return None
        return result

    def loop(self, seconds: float, section=None) -> list:
        """Operations until *seconds* have passed (at least
        :data:`MIN_OPS` attempts)."""
        results = []
        start = time.perf_counter()
        attempts = 0
        while (attempts < MIN_OPS
               or time.perf_counter() - start < seconds):
            attempts += 1
            result = self.op(section)
            if result is not None:
                results.append(result)
        return results


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    setup_times = ([] if trace else
                   [_probe_setup(name, seed, workdir)
                    for _ in range(SETUP_PROBES)])
    import workloads
    from layers import LAYER_METRICS, LayerTracer

    workload = workloads.make(name, seed, workdir)
    try:
        workload.setup()
        runner = Runner(workload)
        warm = runner.op()  # fills memo caches and primes the allocator
        if not trace:
            results = runner.loop(seconds)
            values = {
                "op_ms": _median([r.wall_s / r.speed for r in results],
                                 1e3),
                "unit_us": _median([r.unit_s / r.speed for r in results],
                                   1e6),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
        else:
            untraced = runner.loop(seconds * UNTRACED_SHARE)
            tracer = LayerTracer()
            tracer.install()
            try:
                traced = runner.loop(seconds * (1 - UNTRACED_SHARE),
                                     section=tracer.section)
            finally:
                tracer.uninstall()
            for target in tracer.missing:
                print(f"perfbench: not traced (missing): {target}",
                      file=sys.stderr)
            results = traced
            values = tracer.metrics(
                [r.total_s for r in traced],
                [r.total_s / r.speed for r in untraced],
                [r.total_s / r.speed for r in traced])
            units = {m: u for m, u, _b in LAYER_METRICS}
    finally:
        workload.close()
    work = warm.units if warm is not None else 0
    print(f"workload {name} seed {seed}: {runner.attempted} operations, "
          f"{len(results)} measured, {work} {workload.unit}s per "
          "operation")
    print(f"  error_rate {runner.failed / runner.attempted:.4g} "
          f"({runner.failed}/{runner.attempted})")
    raw = _median([r.wall_s for r in results])
    speed = _median([r.speed for r in results])
    print(f"  raw wall per operation {raw:.4g} s, speed factor {speed:.4g}")
    if workload.checks_reference:
        print(f"  ber_cells_off_ref {runner.off_reference}")
    for metric, value in values.items():
        print(f"  {metric:34s} {value:.6g} {units[metric]}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m: {"value": values[m], "unit": units[m]}
                        for m in values}}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", str(trace)],
                cwd=str(ROOT), capture_output=True, text=True,
                check=True)
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            record = json.loads(lines[-1])
            combined["correct"] &= record["correct"]
            combined["attempted"] += record["attempted"]
            combined["failed"] += record["failed"]
            for metric, entry in record["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Before numpy loads (workloads are imported lazily); set-up probes
    # and per-workload processes inherit the pinning.
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    _import_path()
    if args.setup_probe:
        setup_probe(args.workload, args.seed,
                    Path(os.environ["PERFBENCH_WORKDIR"]))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
