"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions and methods of each layer
(link stages, uwb kernels, the AMS kernel, the Spice engine, the
campaign store) with timing spans while a traced run is active, and
restores the originals afterwards.  Nothing inside ``src/`` changes.

A span records its inclusive time (``busy``), its self time (inclusive
minus the spans opened inside it) and its call count.  Spans opened
with no span around them are *root* spans: their sum over a traced
operation's wall is the trace's coverage.  A wrapped target that does
not exist is skipped and listed in :attr:`LayerTracer.missing`, so the
benchmark keeps running when a later change moves a function; the
metrics it fed then read 0.

Campaign spans (key, get, put, execute) are recorded only inside a
named section (``cold`` / ``replay``) of the campaign workload, so a
store-less campaign (``ber_mui``) is measured by its link spans alone.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("link.tx.busy_s", "s", "lower"),
    ("link.channel.busy_s", "s", "lower"),
    ("link.combine.busy_s", "s", "lower"),
    ("link.afe.busy_s", "s", "lower"),
    ("link.decision.busy_s", "s", "lower"),
    ("link.calibrate.busy_s", "s", "lower"),
    ("link.interferers.busy_s", "s", "lower"),
    ("link.driver_s", "s", "lower"),
    ("link.chunks", "count", "lower"),
    ("link.rows_per_chunk", "rows", "higher"),
    ("uwb.bpf.busy_s", "s", "lower"),
    ("uwb.bpf.samples", "count", "lower"),
    ("uwb.bpf.bytes", "bytes", "lower"),
    ("uwb.integrator.ideal.busy_s", "s", "lower"),
    ("uwb.integrator.ideal.bytes", "bytes", "lower"),
    ("uwb.integrator.circuit.busy_s", "s", "lower"),
    ("uwb.integrator.circuit.bytes", "bytes", "lower"),
    ("uwb.ppm_waveform.busy_s", "s", "lower"),
    ("uwb.ppm_waveform.bytes", "bytes", "lower"),
    ("ams.steps", "count", "lower"),
    ("ams.cosim_steps", "count", "lower"),
    ("ams.cosim_step.busy_s", "s", "lower"),
    ("ams.self_s", "s", "lower"),
    ("ams.setup.busy_s", "s", "lower"),
    ("spice.newton.calls", "count", "lower"),
    ("spice.newton.busy_s", "s", "lower"),
    ("spice.newton.self_s", "s", "lower"),
    ("spice.newton.failures", "count", "lower"),
    ("spice.iterations", "count", "lower"),
    ("spice.iters_per_step", "iter/step", "lower"),
    ("spice.stamp.self_s", "s", "lower"),
    ("spice.mos_eval.calls", "count", "lower"),
    ("spice.mos_eval.busy_s", "s", "lower"),
    ("spice.caps.busy_s", "s", "lower"),
    ("spice.solve.calls", "count", "lower"),
    ("spice.solve.busy_s", "s", "lower"),
    *((f"campaign.{p}.{m}", u, b)
      for p in ("cold", "replay")
      for m, u, b in (("key.busy_s", "s", "lower"),
                      ("get.busy_s", "s", "lower"),
                      ("put.busy_s", "s", "lower"),
                      ("execute.busy_s", "s", "lower"),
                      ("get.hits", "count", "higher"),
                      ("get.misses", "count", "lower"),
                      ("hit_frac", "ratio", "higher"),
                      ("put.bytes", "bytes", "lower"),
                      ("overhead_s", "s", "lower"))),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace_overhead_frac", "ratio", "lower"),
)

#: link stage -> (pipeline class, wrapped method).
LINK_STAGES = {
    "tx": ("TxStage", "process"),
    "channel": ("ChannelStage", "process"),
    "combine": ("CombineStage", "process"),
    "afe": ("AnalogFrontEndStage", "process"),
    "decision": ("DecisionStage", "decide"),
}


def _nbytes(value: Any) -> int:
    return int(getattr(value, "nbytes", 0))


class LayerTracer:
    """Span accounting over wrapped layer entry points."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.failures: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: root-span seconds per section (``None`` outside sections).
        self.root_s: dict[str | None, float] = defaultdict(float)
        self.section_wall: dict[str, float] = defaultdict(float)
        self.current: str | None = None
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------

    @contextlib.contextmanager
    def section(self, name: str):
        """Attribute the campaign spans inside to pass *name*."""
        previous, self.current = self.current, name
        start = time.perf_counter()
        try:
            yield
        finally:
            self.section_wall[name] += time.perf_counter() - start
            self.current = previous

    def _close(self, label: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        self.busy[label] += elapsed
        self.self_time[label] += elapsed - child
        self.calls[label] += 1
        if self._stack:
            self._stack[-1] += elapsed
        else:
            self.root_s[self.current] += elapsed

    def wrap(self, fn: Callable, name: str | Callable[[tuple], str],
             after: Callable | None = None,
             campaign: bool = False) -> Callable:
        """*fn* inside a span named *name* (or ``name(args)``).

        ``after(tracer, label, args, result)`` runs once the span is
        closed, to record counts.  With ``campaign`` the span is only
        recorded inside a section, as ``campaign.<section>.<name>``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if campaign:
                if tracer.current is None:
                    return fn(*args, **kwargs)
                label = f"campaign.{tracer.current}.{name}"
            else:
                label = name(args) if callable(name) else name
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(label, start)
                tracer.failures[label] += 1
                raise
            tracer._close(label, start)
            if after is not None:
                after(tracer, label, args, out)
            return out

        return traced

    # -- patching -------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any, original: Any) -> None:
        setattr(owner, attr, value)
        self._restore.append((owner, attr, original))

    def patch_method(self, module_name: str, cls_name: str, attr: str,
                     name, after: Callable | None = None,
                     campaign: bool = False) -> None:
        """Wrap the method *attr* defined on class *cls_name* of
        *module_name* itself."""
        cls = getattr(_module(module_name), cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        self._set(cls, attr, self.wrap(original, name, after, campaign),
                  original)

    def patch_function(self, module_name: str, attr: str, name,
                       after: Callable | None = None,
                       campaign: bool = False) -> None:
        """Wrap function *attr* of *module_name* in every ``repro``
        module that bound it (``from ... import`` copies included)."""
        original = getattr(_module(module_name), attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        traced = self.wrap(original, name, after, campaign)
        for mod_name, mod in list(sys.modules.items()):
            if (mod is not None and mod_name.split(".")[0] == "repro"
                    and vars(mod).get(attr) is original):
                self._set(mod, attr, traced, original)

    def patch_mna_solve(self) -> None:
        """Wrap ``numpy.linalg.solve`` as called from
        ``repro.spice.mna`` only (other callers pass straight
        through)."""
        import numpy.linalg as linalg

        original = vars(linalg)["solve"]
        traced = self.wrap(original, "spice.solve")

        def solve(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller == "repro.spice.mna":
                return traced(*args, **kwargs)
            return original(*args, **kwargs)

        self._set(linalg, "solve", solve, original)

    def install(self) -> None:
        """Wrap every layer entry point."""
        pipeline = "repro.link.pipeline"
        for stage, (cls_name, method) in LINK_STAGES.items():
            self.patch_method(pipeline, cls_name, method, f"link.{stage}",
                              after=_count_rows if stage == "combine"
                              else None)
        self.patch_function(pipeline, "run_ber_sweep", "link.sweep")
        self.patch_function(pipeline, "run_ber_point", "link.sweep")
        self.patch_function("repro.link.backends", "calibrate",
                            "link.calibrate")
        self.patch_function("repro.link.backends",
                            "build_interferer_paths", "link.interferers")

        self.patch_method("repro.uwb.bpf", "BandPassFilter", "__call__",
                          "uwb.bpf", after=_count_bpf)
        for cls_name in ("IdealIntegrator", "TwoPoleIntegrator"):
            self.patch_method("repro.uwb.integrator", cls_name,
                              "window_outputs", _integrator_label,
                              after=_count_io)
        self.patch_function("repro.uwb.modulation", "ppm_waveform",
                            "uwb.ppm_waveform", after=_count_io)

        self.patch_function("repro.uwb.system", "build_ams_receiver",
                            "ams.setup")
        self.patch_method("repro.ams.kernel", "Simulator", "run",
                          "ams.run", after=_count_steps)
        self.patch_method("repro.ams.cosim", "SpiceBlock", "step",
                          "ams.cosim_step")

        mna = "repro.spice.mna"
        self.patch_method(mna, "MnaSystem", "newton", "spice.newton")
        self.patch_method(mna, "MnaSystem", "stamp_nonlinear",
                          "spice.stamp")
        self.patch_method(mna, "MnaSystem", "dynamic_caps", "spice.caps")
        self.patch_method("repro.spice.devices.mosfet", "MosGroup",
                          "evaluate", "spice.mos_eval")
        self.patch_mna_solve()

        store = "repro.campaign.store"
        self.patch_method(store, "ResultStore", "scenario_key", "key",
                          campaign=True)
        self.patch_method(store, "ResultStore", "get", "get",
                          after=_count_get, campaign=True)
        self.patch_method(store, "ResultStore", "put", "put",
                          after=_count_put, campaign=True)
        _module("repro.campaign.runner")  # binds _execute as well
        self.patch_function("repro.core.scenario", "_execute", "execute",
                            campaign=True)

    def uninstall(self) -> None:
        """Put every original back (last patch first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- metrics --------------------------------------------------------

    def metrics(self, traced_walls: list[float],
                untraced_norm: list[float],
                traced_norm: list[float]) -> dict[str, float]:
        """Per-operation values of every :data:`LAYER_METRICS` entry
        after ``len(traced_walls)`` traced operations.

        ``untraced_norm`` / ``traced_norm`` are drift-corrected
        operation walls, compared for ``trace_overhead_frac``."""
        n = max(len(traced_walls), 1)
        busy, calls, counts = self.busy, self.calls, self.counts
        m: dict[str, float] = {}
        for stage in LINK_STAGES:
            m[f"link.{stage}.busy_s"] = busy[f"link.{stage}"] / n
        m["link.calibrate.busy_s"] = busy["link.calibrate"] / n
        m["link.interferers.busy_s"] = busy["link.interferers"] / n
        m["link.driver_s"] = self.self_time["link.sweep"] / n
        m["link.chunks"] = calls["link.tx"] / n
        m["link.rows_per_chunk"] = _ratio(counts["link.rows"],
                                          calls["link.combine"])
        m["uwb.bpf.busy_s"] = busy["uwb.bpf"] / n
        m["uwb.bpf.samples"] = counts["uwb.bpf.samples"] / n
        m["uwb.bpf.bytes"] = counts["uwb.bpf.bytes"] / n
        for model in ("ideal", "circuit"):
            label = f"uwb.integrator.{model}"
            m[f"{label}.busy_s"] = busy[label] / n
            m[f"{label}.bytes"] = counts[f"{label}.bytes"] / n
        m["uwb.ppm_waveform.busy_s"] = busy["uwb.ppm_waveform"] / n
        m["uwb.ppm_waveform.bytes"] = counts["uwb.ppm_waveform.bytes"] / n
        m["ams.steps"] = counts["ams.steps"] / n
        m["ams.cosim_steps"] = calls["ams.cosim_step"] / n
        m["ams.cosim_step.busy_s"] = busy["ams.cosim_step"] / n
        m["ams.self_s"] = self.self_time["ams.run"] / n
        m["ams.setup.busy_s"] = busy["ams.setup"] / n
        m["spice.newton.calls"] = calls["spice.newton"] / n
        m["spice.newton.busy_s"] = busy["spice.newton"] / n
        m["spice.newton.self_s"] = self.self_time["spice.newton"] / n
        m["spice.newton.failures"] = self.failures["spice.newton"] / n
        m["spice.iterations"] = calls["spice.stamp"] / n
        m["spice.iters_per_step"] = _ratio(calls["spice.stamp"],
                                           calls["ams.cosim_step"])
        m["spice.stamp.self_s"] = self.self_time["spice.stamp"] / n
        m["spice.mos_eval.calls"] = calls["spice.mos_eval"] / n
        m["spice.mos_eval.busy_s"] = busy["spice.mos_eval"] / n
        m["spice.caps.busy_s"] = busy["spice.caps"] / n
        m["spice.solve.calls"] = calls["spice.solve"] / n
        m["spice.solve.busy_s"] = busy["spice.solve"] / n
        for p in ("cold", "replay"):
            pre = f"campaign.{p}"
            for part in ("key", "get", "put", "execute"):
                m[f"{pre}.{part}.busy_s"] = busy[f"{pre}.{part}"] / n
            hits, misses = counts[f"{pre}.get.hits"], \
                counts[f"{pre}.get.misses"]
            m[f"{pre}.get.hits"] = hits / n
            m[f"{pre}.get.misses"] = misses / n
            m[f"{pre}.hit_frac"] = _ratio(hits, hits + misses)
            m[f"{pre}.put.bytes"] = counts[f"{pre}.put.bytes"] / n
            m[f"{pre}.overhead_s"] = (self.section_wall[p]
                                      - self.root_s[p]) / n
        traced = sum(traced_walls)
        m["trace.wall_s"] = traced / n
        m["trace.coverage"] = _ratio(sum(self.root_s.values()), traced)
        m["trace_overhead_frac"] = (
            statistics.median(traced_norm)
            / statistics.median(untraced_norm) - 1.0
            if traced_norm and untraced_norm else 0.0)
        return m


def _module(name: str):
    """The module *name*, or ``None`` when it no longer imports."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _integrator_label(args: tuple) -> str:
    return f"uwb.integrator.{getattr(args[0], 'name', 'unknown')}"


def _count_rows(tracer: LayerTracer, _label, args, _out) -> None:
    sigmas = getattr(args[1], "sigmas", None)
    tracer.counts["link.rows"] += 1 if sigmas is None else len(sigmas)


def _count_bpf(tracer: LayerTracer, label, args, out) -> None:
    tracer.counts[f"{label}.samples"] += int(getattr(args[1], "size", 0))
    tracer.counts[f"{label}.bytes"] += _nbytes(args[1]) + _nbytes(out)


def _count_io(tracer: LayerTracer, label, args, out) -> None:
    """Bytes read and written by a kernel: array arguments plus the
    result."""
    moved = sum(_nbytes(a) for a in args[1:]) + _nbytes(out)
    tracer.counts[f"{label}.bytes"] += moved


def _count_steps(tracer: LayerTracer, _label, args, _out) -> None:
    tracer.counts["ams.steps"] += int(getattr(args[0], "steps", 0))


def _count_get(tracer: LayerTracer, label, _args, out) -> None:
    tracer.counts[f"{label}.hits" if out is not None
                  else f"{label}.misses"] += 1


def _count_put(tracer: LayerTracer, label, args, key) -> None:
    """Bytes of the object record and payload *put* wrote."""
    store = args[0]
    if key is None:
        return
    for attr in ("_object_path", "_payload_path"):
        path_of = getattr(store, attr, None)
        if path_of is None:
            continue
        try:
            tracer.counts[f"{label}.bytes"] += path_of(key).stat().st_size
        except OSError:
            pass
