"""Observability layer: structured tracing, metrics, and profiling.

Submodules:

* :mod:`repro.telemetry.trace` — zero-overhead-when-off span API with
  virtual + wall timestamps and deterministic cross-worker merging.
* :mod:`repro.telemetry.metrics` — log-scale histograms with
  merge-stable percentiles.
* :mod:`repro.telemetry.profile` — per-phase wall-time profiling of
  the epoch loop for the benchmark harness.
* :mod:`repro.telemetry.export` — Chrome trace-event (Perfetto) JSON
  export and structural validation.

Hard invariant: with telemetry off (the default) every simulation
output is byte-identical to an uninstrumented build, and turning it on
only observes — it never changes results. See README.md in this
directory for the span model and determinism rules.
"""

from repro.telemetry import export, metrics, profile, trace

__all__ = ["trace", "metrics", "profile", "export"]
