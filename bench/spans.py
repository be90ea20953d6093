"""Span recorder: layer timings taken from outside the program.

The harness wraps the layers' public callables (class attributes and
module bindings) with timing wrappers that live in this file; nothing in
``src/`` knows it is being measured.  A wrapped call appends two events
(open, close) to an in-memory log — two parallel ``array`` columns, 12
bytes an event, no per-span object and nothing for the garbage collector
to scan — and nothing is written until the run has ended.  Reading the
log back pairs the events into spans ``{name, layer, start, end, parent,
epoch-or-tick id}``: spans nest strictly (one thread; the only coroutines
wrapped are the ones the serving driver awaits one after the other), so
a span's parent is whatever was open when it opened.

A span's **self time** is its duration minus the part of that interval
its child spans cover, so self times partition each root span: they sum
to its duration.
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter
from typing import Any, Callable, Iterator

#: ``tally(counts, args, result)`` — exact work counts taken at the same
#: boundary as the span (argument sizes, result sizes).
Tally = Callable[[dict, tuple, Any], None]

_CLOSE = -1  # event codes below this one carry a unit id: -2 - unit


class Recorder:
    """In-memory event log plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # target id -> (name, layer)
        self._ids: dict[tuple[str, str], int] = {}
        #: Event log: a target id (open), ``_CLOSE``, or a unit change.
        self._code = array("i")
        self._time = array("d")
        self.counts: dict[str, int] = {}
        self._installed: list[tuple[Any, str, Any]] = []
        #: Wrap targets the program no longer has (a refactor moved or
        #: removed them); their metrics read 0 and the run says so.
        self.missing: list[str] = []
        self._built = -1
        self.target = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")

    # -- recording -------------------------------------------------------------

    def target_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        tid = self._ids.get(key)
        if tid is None:
            tid = self._ids[key] = len(self.names)
            self.names.append(key)
        return tid

    def open(self, tid: int) -> None:
        self._code.append(tid)
        self._time.append(perf_counter())

    def close(self) -> None:
        self._time.append(perf_counter())
        self._code.append(_CLOSE)

    def set_unit(self, unit: int) -> None:
        """Stamp spans opened from now on with this epoch (or tick) id."""
        self._code.append(-2 - unit)
        self._time.append(0.0)

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        tally: Tally | None = None,
    ) -> None:
        """Replace ``owner.attr`` (class attribute or module binding) with a
        timing wrapper; :meth:`restore` puts the original back."""
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        func = raw.__func__ if kind is not None else raw
        timed = self._timed(func, self.target_id(name, layer), tally)
        timed.__wrapped__ = func  # type: ignore[attr-defined]
        timed.__name__ = getattr(func, "__name__", attr)
        setattr(owner, attr, kind(timed) if kind is not None else timed)
        self._installed.append((owner, attr, raw))

    def _timed(self, func: Callable, tid: int, tally: Tally | None) -> Callable:
        open_, close, counts = self.open, self.close, self.counts
        if inspect.iscoroutinefunction(func):

            async def timed_async(*args: Any, **kwargs: Any) -> Any:
                open_(tid)
                try:
                    return await func(*args, **kwargs)
                finally:
                    close()

            return timed_async
        if tally is not None:

            def timed_tally(*args: Any, **kwargs: Any) -> Any:
                open_(tid)
                try:
                    result = func(*args, **kwargs)
                finally:
                    close()
                tally(counts, args, result)
                return result

            return timed_tally

        # The common case runs up to 10k times per epoch, so open() and
        # close() are inlined: two more Python calls per span would be a
        # third of the wrapper's cost.
        add_code, add_time = self._code.append, self._time.append

        def timed(*args: Any, **kwargs: Any) -> Any:
            add_code(tid)
            add_time(perf_counter())
            try:
                return func(*args, **kwargs)
            finally:
                add_time(perf_counter())
                add_code(_CLOSE)

        return timed

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- reading ---------------------------------------------------------------

    def _build(self) -> None:
        """Pair the event log into span columns (ordered by open time)."""
        if self._built == len(self._code):
            return
        target, start, end = array("i"), array("d"), array("d")
        parent, units = array("i"), array("i")
        stack: list[int] = []
        unit = -1
        for code, when in zip(self._code, self._time):
            if code >= 0:
                parent.append(stack[-1] if stack else -1)
                stack.append(len(target))
                target.append(code)
                start.append(when)
                end.append(when)
                units.append(unit)
            elif code == _CLOSE:
                end[stack.pop()] = when
            else:
                unit = -2 - code
        if stack:
            raise RuntimeError(f"{len(stack)} spans were never closed")
        self.target, self.start, self.end = target, start, end
        self.parent, self.unit = parent, units
        self._built = len(self._code)

    def __len__(self) -> int:
        self._build()
        return len(self.target)

    def self_times(self) -> array:
        """Per span: duration minus the time its child spans cover."""
        self._build()
        start, end, parent = self.start, self.end, self.parent
        out = array("d", (e - s for s, e in zip(start, end)))
        for index, up in enumerate(parent):
            if up >= 0:
                out[up] -= end[index] - start[index]
        return out

    def by_name(self) -> dict[str, "NameTotals"]:
        """Aggregate calls, total and self seconds per span name."""
        selfs = self.self_times()
        totals: dict[str, NameTotals] = {}
        for index, tid in enumerate(self.target):
            name, layer = self.names[tid]
            entry = totals.get(name)
            if entry is None:
                entry = totals[name] = NameTotals(name, layer)
            entry.calls += 1
            entry.total_s += self.end[index] - self.start[index]
            entry.self_s += selfs[index]
        return totals

    def spans(self, name: str | None = None, max_unit: int | None = None) -> Iterator[dict]:
        """Spans as dicts, optionally only those called ``name`` and/or
        stamped with a unit id ``<= max_unit``."""
        self._build()
        for index, tid in enumerate(self.target):
            span_name, layer = self.names[tid]
            if name is not None and span_name != name:
                continue
            if max_unit is not None and self.unit[index] > max_unit:
                continue
            yield {
                "name": span_name,
                "layer": layer,
                "start": self.start[index],
                "end": self.end[index],
                "parent": self.parent[index],
                "unit": self.unit[index],
            }


class NameTotals:
    __slots__ = ("name", "layer", "calls", "total_s", "self_s")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def chrome_trace(recorder: Recorder, max_unit: int | None = None) -> dict:
    """Render spans as Chrome trace-event JSON (loads in ui.perfetto.dev).

    Goes through the program's own exporter so the document is one that
    ``repro.telemetry.export.validate_chrome_trace`` accepts; one track
    per layer, wall time on the time axis.
    """
    from repro.telemetry.export import to_chrome_trace

    origin = recorder.start[0] if len(recorder) else 0.0
    events = [
        {
            "ph": "X",
            "name": span["name"],
            "cat": span["layer"],
            "proc": "bench",
            "track": span["layer"],
            "ts": span["start"] - origin,
            "dur": span["end"] - span["start"],
            "args": {"unit": span["unit"], "parent": span["parent"]},
        }
        for span in recorder.spans(max_unit=max_unit)
    ]
    return to_chrome_trace(events)
