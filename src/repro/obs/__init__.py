"""repro.obs — structured run telemetry.

Three layers over one event stream:

* :mod:`repro.obs.tracer` — typed span/instant events with dual
  virtual/wall timestamps, flushed to deterministic ``trace.jsonl``.
* :mod:`repro.obs.metrics` — counters/gauges/histograms with one
  JSON-compatible snapshot, persisted by the run/sweep stores.
* :mod:`repro.obs.tooling` (and ``python -m repro.obs``) — summary tables,
  Chrome/Perfetto export, and trace diffing for equivalence triage.

All emission helpers are zero-overhead while disabled, so they live in the
execution stack unconditionally.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ("EVENT_NAMES", "validate_event_name"),
    ".metrics": ("MetricsRegistry", "counter_inc", "gauge_set", "observe", "observed"),
    ".tooling": ("diff_traces", "summarize_trace", "summary_table", "to_chrome_trace"),
    ".tracer": ("WALL_FIELDS", "Tracer", "instant", "read_trace", "span", "strip_wall_fields", "trace_lines"),
})
