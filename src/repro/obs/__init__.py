"""Observability for the reproduction harness: tracing + metrics.

Two stdlib-only primitives and an export layer:

* :mod:`repro.obs.trace` - hierarchical, aggregating span tracer
  with a module-flag-gated no-op fast path (``trace.ENABLED``).
* :mod:`repro.obs.metrics` - process-local counters, gauges and
  log-bucketed histograms behind a reset-in-place registry
  (``metrics.REGISTRY``).
* :mod:`repro.obs.export` - text rendering and JSON-reversible
  persistence (via :mod:`repro.core.serialization`), plus the shared
  ``format_bytes`` helper.

See the "Observability" section of ``EXPERIMENTS.md`` for the span
taxonomy, metric names, and the enable/disable + overhead contract.
"""

from . import metrics, trace
from .metrics import REGISTRY, MetricsRegistry, MetricsSnapshot
from .trace import SpanNode, collect, span

# The export layer pulls repro.core.serialization, whose package
# __init__ reaches back into repro.uwb - importing it eagerly here
# would close an import cycle through the instrumented AMS engines
# (repro.uwb -> ams.engine -> repro.obs).  Load it on first attribute
# access instead; the stdlib-only trace/metrics stay eager.
_EXPORT_NAMES = ("TraceReport", "format_bytes", "render_trace",
                 "export")


def __getattr__(name: str):
    if name in _EXPORT_NAMES:
        # importlib, not ``from . import export``: the from-import
        # form resolves the submodule via getattr on this package and
        # would recurse straight back into this hook.
        import importlib

        export = importlib.import_module(__name__ + ".export")
        globals()["export"] = export
        for sym in _EXPORT_NAMES[:-1]:
            globals()[sym] = getattr(export, sym)
        return globals()[name]
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "REGISTRY",
    "SpanNode",
    "TraceReport",
    "collect",
    "format_bytes",
    "metrics",
    "render_trace",
    "span",
    "trace",
]
