"""In-memory span recorder for the traced benchmark run.

Every library call the benchmark makes goes through a call wrapper
``t(name, fn, *args)``. Untraced runs use :func:`direct`, which only calls
``fn``. Traced runs use a :class:`Tracer`, which records one span per
library call, under a root span per user-level call. A span is (name,
start, end, parent, call id); spans stay in memory and are written out
once, after the run.
"""

import time
from array import array

import numpy as np


def direct(name, fn, *args):
    """Untraced call wrapper."""
    return fn(*args)


class Tracer:
    """Span recorder; an instance is the traced call wrapper. Spans are
    kept in typed arrays, about 40 bytes each."""

    def __init__(self):
        self.name_table = []
        self.error_table = [""]
        self._name_index = {}
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.call_id = array("q")
        self.error = array("b")
        self._root = -1
        self._calls = 0

    def __len__(self):
        return len(self.name)

    def _record(self, name, parent, fn, arg):
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.name_table)
            self.name_table.append(name)
        idx = len(self.name)
        self.name.append(index)
        self.parent.append(parent)
        self.call_id.append(self._calls)
        self.error.append(0)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*arg)
        except Exception as exc:
            err = type(exc).__name__
            if err not in self.error_table:
                self.error_table.append(err)
            self.error[idx] = self.error_table.index(err)
            raise
        finally:
            self.end[idx] = time.perf_counter_ns()

    def call(self, kind, run):
        """Run one user-level call ``run(self)`` under a root span."""
        self._root = len(self.name)
        try:
            return self._record("call." + kind, -1, run, (self,))
        finally:
            self._root = -1
            self._calls += 1

    def __call__(self, name, fn, *args):
        return self._record(name, self._root, fn, args)

    def self_ns(self) -> np.ndarray:
        """Per-span self time: duration minus the time its child spans cover."""
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return dur - covered.astype(np.int64)

    def summary(self) -> dict:
        """name -> {"count", "self_ns", "errors": {exception name: count}}."""
        names = np.frombuffer(self.name, dtype=np.int16)
        errors = np.frombuffer(self.error, dtype=np.int8)
        self_ns = self.self_ns()
        out = {}
        for index, name in enumerate(self.name_table):
            mine = names == index
            failed = np.bincount(errors[mine], minlength=len(self.error_table))
            out[name] = {"count": int(mine.sum()), "self_ns": int(self_ns[mine].sum()),
                         "errors": {self.error_table[e]: int(n)
                                    for e, n in enumerate(failed) if e and n}}
        return out

    def save(self, path):
        """Write every span as columns of an .npz file; ``name`` and ``error``
        index ``name_table`` and ``error_table`` (error 0 means none)."""
        np.savez(
            path,
            name_table=np.array(self.name_table),
            error_table=np.array(self.error_table),
            name=np.frombuffer(self.name, dtype=np.int16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64).astype(np.int32),
            call_id=np.frombuffer(self.call_id, dtype=np.int64).astype(np.int32),
            error=np.frombuffer(self.error, dtype=np.int8),
        )
