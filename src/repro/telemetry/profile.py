"""Per-phase wall-time profiling for the epoch loop.

A :class:`PhaseProfiler` is installed process-globally; while active,
``AmmBoostSystem._run_epoch`` times each phase with
``time.perf_counter`` and feeds the totals here.  Profiling is purely
observational — it reads the wall clock, never the simulation state —
so results are unchanged whether a profiler is installed or not (the
digest tests pin this).

The benchmark harness uses it to emit the ``phase_profile`` block in
``BENCH_amm.json`` so perf regressions can be attributed to a phase.
"""

from __future__ import annotations

from typing import Any

__all__ = ["PhaseProfiler", "install", "uninstall", "active"]

_active: "PhaseProfiler | None" = None


class PhaseProfiler:
    """Accumulates wall-time per epoch phase."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.epochs = 0

    def record(self, phase: str, seconds: float) -> None:
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + 1

    def record_epoch(self) -> None:
        self.epochs += 1

    def merge(self, other: "PhaseProfiler") -> None:
        for phase, total in other.totals.items():
            self.totals[phase] = self.totals.get(phase, 0.0) + total
        for phase, calls in other.calls.items():
            self.calls[phase] = self.calls.get(phase, 0) + calls
        self.epochs += other.epochs

    def summary(self) -> dict[str, Any]:
        """JSON-safe breakdown: per-phase totals, shares, and means."""
        grand_total = sum(self.totals.values())
        phases: dict[str, Any] = {}
        for phase in sorted(self.totals):
            total = self.totals[phase]
            calls = self.calls[phase]
            phases[phase] = {
                "total_s": total,
                "calls": calls,
                "mean_us": (total / calls) * 1e6 if calls else 0.0,
                "share": total / grand_total if grand_total else 0.0,
            }
        return {
            "epochs": self.epochs,
            "total_s": grand_total,
            "phases": phases,
        }


def install(profiler: PhaseProfiler) -> None:
    """Activate a profiler for subsequent ``_run_epoch`` calls."""
    global _active
    _active = profiler


def uninstall() -> None:
    """Deactivate profiling; the epoch loop stops timing its phases."""
    global _active
    _active = None


def active() -> "PhaseProfiler | None":
    """The installed profiler, or None."""
    return _active
