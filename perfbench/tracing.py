"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a public function of the library, made from
the benchmark's own code.  Each span records its name (``layer.function``),
start and end (``perf_counter_ns``), the span that was open when it began,
the op it belongs to, and whether it is a probe: a call the workload itself
does not make, added only to measure one layer (its time is excluded from
the tracing overhead).  Spans live in compact arrays and are written to disk
once, when the run ends.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.probe = array("b")
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []

    def _open(self, name: str, probe: bool) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.probe.append(probe)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        idx = self._open(name, False)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def span(self, name: str, probe: bool = False):
        idx = self._open(name, probe)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span (for patching a library
        module's reference to a public function of another module)."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "probe": np.frombuffer(self.probe, dtype=np.int8),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in seconds, and whether
        the spans are probes.  Self time is the duration minus the time of
        the span's direct children."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64) / 1e9
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "probe": bool(a["probe"][sel].any()),
            }
        return out

    def root_seconds(self) -> float:
        """Total time of spans that have no parent."""
        a = self.arrays()
        sel = a["parent"] < 0
        return float((a["end"][sel] - a["start"][sel]).sum()) / 1e9

    def probe_seconds(self) -> float:
        """Time of outermost probe spans (probes are never nested in each other)."""
        a = self.arrays()
        sel = a["probe"] == 1
        return float((a["end"][sel] - a["start"][sel]).sum()) / 1e9

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def patched(module, **wrappers):
    """Temporarily replace attributes of ``module``: each wrapper receives the
    original object and returns its replacement.  Restored on exit."""
    saved = {attr: getattr(module, attr) for attr in wrappers}
    try:
        for attr, wrap in wrappers.items():
            setattr(module, attr, wrap(saved[attr]))
        yield
    finally:
        for attr, original in saved.items():
            setattr(module, attr, original)
