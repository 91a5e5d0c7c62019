"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps public methods of the program's objects from the
benchmark's side: an instance attribute shadows the class method (the
same trick ``repro.analysis.static.sanitizer.NumericSanitizer`` uses),
or, where the program creates the object itself, a module or class
attribute is swapped for the duration of the run. Nothing inside
``src/`` is edited or switched on.

Spans live in memory as ``(name, start_ns, end_ns, parent, unit)``
tuples and are written as JSON lines when the run ends. A layer's *self*
time is its span duration minus the time covered by its direct child
spans; the self time of the benchmark's own root spans is reported as
``unattributed``, so the named layers plus ``unattributed`` sum to the
measured root wall time by construction.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns

__all__ = ["SpanRecorder", "self_times"]


class SpanRecorder:
    """Records nested spans around wrapped callables.

    ``unit`` tags every span with the id of the unit of work it belongs
    to (a train step, a request, a served batch), so one unit's spans
    can be pulled out of the trace file.
    """

    def __init__(self, clock=perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple[str, int, int, int, object]] = []
        self.unit: object = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.clock(), 0, parent, self.unit))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent, unit = self.spans[idx]
        self.spans[idx] = (name, start, self.clock(), parent, unit)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def traced(self, name: str, fn):
        """``fn`` wrapped so every call records a span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # ------------------------------------------------------------------ #
    # Installing wrappers
    # ------------------------------------------------------------------ #

    def shadow(self, obj, method: str, make) -> None:
        """Replace ``obj.method`` with ``make(original_bound_method)``.

        Works on instances (the bound method becomes an instance
        attribute), classes and modules alike; :meth:`restore` undoes
        every replacement in reverse order.
        """
        had_own = method in vars(obj)
        original = vars(obj)[method] if had_own else None
        # A plain function set on a class stays a method (``self`` is
        # passed through *args); on an instance or module it is called
        # as is.
        setattr(obj, method, make(getattr(obj, method)))
        self._undo.append((obj, method, original, had_own))

    def wrap(self, obj, method: str, name: str) -> None:
        """Shadow ``obj.method`` with a wrapper recording span ``name``."""
        self.shadow(obj, method, lambda fn: self.traced(name, fn))

    def restore(self) -> None:
        """Remove every wrapper installed by :meth:`shadow` or :meth:`wrap`."""
        while self._undo:
            obj, method, original, had_own = self._undo.pop()
            if had_own:
                setattr(obj, method, original)
            else:
                delattr(obj, method)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #

    def write_jsonl(self, path) -> None:
        """One JSON object per span: name, start/end ns, parent, unit."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "unit": unit,
                }) + "\n")


def self_times(spans) -> tuple[dict[str, int], int]:
    """Self time (ns) per span name, and the total root span time (ns).

    ``spans`` is :attr:`SpanRecorder.spans`; unclosed spans are ignored.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and end:
            child_ns[parent] += end - start
    totals: dict[str, int] = {}
    root_ns = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if not end:
            continue
        totals[name] = totals.get(name, 0) + (end - start) - child_ns[i]
        if parent < 0:
            root_ns += end - start
    return totals, root_ns
