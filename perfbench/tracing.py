"""In-memory spans for the traced benchmark pass, and their self times.

Spans are recorded only from the benchmark's own files, around the calls it
makes into each ffpn module; nothing inside the package is instrumented.
A span's layer is its name up to the first dot ("search.resolve_pair" is
layer "search"; the benchmark's own glue is layer "bench").
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

_OFF = nullcontext()


class Tracer:
    """Collects spans {name, start, end, parent, op, error} when enabled.

    `parent` is the index of the enclosing span, `op` the operation id that
    all spans of one operation share.  With tracing off, span() hands back a
    shared no-op context so an untraced pass pays one call per span site.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []

    def span(self, name, op):
        if not self.enabled:
            return _OFF
        return self._record(name, op)

    @contextmanager
    def _record(self, name, op):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": op,
            "error": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one client, one thread), so the
    subtraction is exact.
    """
    out = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out


def layer_self_times(spans):
    """Self time summed per layer."""
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        layer = s["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + t
    return totals
