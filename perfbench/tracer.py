"""Spans and counters recorded around calls into the wcs layers.

Nothing here touches the program's source: the tracer swaps a wrapper in for
a name at the place where its caller looks it up (a module global, a
module attribute or a dict entry) and puts the original back afterwards.
Spans live in flat in-memory arrays until the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Records spans (name, start, end, parent, job) and named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._sid = array("q")
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._job = array("q")
        self.counters: dict[str, float] = {}
        self.job_id = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, counter: str, value: float = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def call(self, nid: int, fn, args, kwargs, hook=None):
        """Run fn inside a span; hook(result, exc) records counters."""
        stack = self._stack()
        # a pool thread's first span belongs to whatever the main thread,
        # blocked on the pool, has open
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        sid = next(self._ids)
        stack.append(sid)
        start = _clock()
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            if hook is not None:
                hook(None, exc)
            raise
        finally:
            end = _clock()
            stack.pop()
            with self._lock:
                self._sid.append(sid)
                self._name.append(nid)
                self._start.append(start)
                self._end.append(end)
                self._parent.append(parent)
                self._job.append(self.job_id)
        if hook is not None:
            hook(out, None)
        return out

    def wrap(self, name: str, fn, hook=None):
        """A stand-in for fn that records one span per call."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            return self.call(nid, fn, args, kwargs, hook)

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """A stand-in for a generator function: one span per item produced."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            self.add(name + ".calls")
            items = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(nid, next, (items,), {})
                except StopIteration:
                    return
                self.add(name + ".count")
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_rootfind(self, name: str, fn):
        """A stand-in for a scalar root finder that also counts evaluations."""
        nid = self.name_id(name)

        def traced(f, *args, **kwargs):
            evals = [0]

            def counted(x, *fargs):
                evals[0] += 1
                return f(x, *fargs)

            try:
                return self.call(nid, fn, (counted, *args), kwargs)
            finally:
                self.add(name + ".evals", evals[0])

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def patch(self, module: str, attr: str, wrapper) -> None:
        mod = importlib.import_module(module)
        self._undo.append((setattr, mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def patch_item(self, mapping: dict, key, wrapper) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = wrapper

    @contextmanager
    def installed(self, install):
        """Apply install(tracer), then restore every patched name."""
        try:
            install(self)
            yield self
        finally:
            while self._undo:
                setter, owner, key, old = self._undo.pop()
                setter(owner, key, old)

    # -- reading -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        order = np.argsort(np.frombuffer(self._sid, dtype=np.int64), kind="stable")
        return {
            "sid": np.frombuffer(self._sid, dtype=np.int64)[order],
            "name": np.asarray(self._name, dtype=np.int64)[order],
            "start": np.frombuffer(self._start, dtype=np.float64)[order],
            "end": np.frombuffer(self._end, dtype=np.float64)[order],
            "parent": np.frombuffer(self._parent, dtype=np.int64)[order],
            "job": np.frombuffer(self._job, dtype=np.int64)[order],
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the union of its children's
        intervals; the union matters where pool threads overlap.
        """
        a = self.arrays()
        n = a["sid"].size
        if n == 0:
            return {}
        if not np.array_equal(a["sid"], np.arange(n)):
            raise RuntimeError("span ids are not contiguous; a span was left open")
        dur = a["end"] - a["start"]
        covered = np.zeros(n)
        kids = np.flatnonzero(a["parent"] >= 0)
        kids = kids[np.lexsort((a["start"][kids], a["parent"][kids]))]
        parents = a["parent"][kids]
        cuts = np.flatnonzero(np.diff(parents)) + 1
        for group in np.split(np.arange(kids.size), cuts):
            if group.size == 0:
                continue
            s = a["start"][kids[group]]
            e = a["end"][kids[group]]
            reach = np.concatenate([[-np.inf], np.maximum.accumulate(e)[:-1]])
            covered[parents[group[0]]] = float(np.sum(np.maximum(0.0, e - np.maximum(s, reach))))
        own = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
