"""Unified telemetry plane: trace spans, stats groups, profiling, logging.

Four dependency-free pillars shared by every layer of the
reproduction:

* :mod:`repro.obs.trace` — a context-var tracer producing hierarchical
  spans that stitch across processes (workers, local or remote, ship
  each task's spans back to the dispatching parent);
* :mod:`repro.obs.metrics` — renders stats groups (each owner's
  counters, built by the reader that holds the owner) as Prometheus
  text;
* :mod:`repro.obs.profile` — the opt-in slow-task cProfile hook that
  attaches top frames to a task's span;
* :mod:`repro.obs.logging` — one ``configure()`` for every repro
  logger, driven by ``FREQYWM_LOG``.

Everything is off by default and priced accordingly: with telemetry
disabled the tracer hands back a shared no-op span, and stats groups
are only built when someone asks for them. Enable features with
``FREQYWM_TELEMETRY=spans,metrics,profile`` (or ``all``), an
``ExecutionPolicy(telemetry=...)``, or ``--telemetry`` on the CLI.
"""

from repro.obs.trace import (
    TELEMETRY_ENV,
    TELEMETRY_FEATURES,
    Tracer,
    configure_telemetry,
    current_context,
    enabled_features,
    metrics_active,
    parse_telemetry,
    profile_active,
    span,
    spans_active,
    tracer,
)

__all__ = [
    "TELEMETRY_ENV",
    "TELEMETRY_FEATURES",
    "Tracer",
    "configure_telemetry",
    "current_context",
    "enabled_features",
    "metrics_active",
    "parse_telemetry",
    "profile_active",
    "span",
    "spans_active",
    "tracer",
]
