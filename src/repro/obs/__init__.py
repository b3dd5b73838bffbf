"""Observability for the reproduction harness: tracing + metrics.

Two stdlib-only primitives and an export layer:

* :mod:`repro.obs.trace` - hierarchical, aggregating span tracer
  with a module-flag-gated no-op fast path (``trace.ENABLED``).
* :mod:`repro.obs.metrics` - process-local counters and
  log-bucketed histograms behind a reset-in-place registry
  (``metrics.REGISTRY``).
* :mod:`repro.obs.export` - text rendering and JSON-reversible
  persistence (via :mod:`repro.core.serialization`), plus the shared
  ``format_bytes`` helper.

See the "Observability" section of ``EXPERIMENTS.md`` for the span
taxonomy, metric names, and the enable/disable + overhead contract.
"""
