"""Span tracing from the benchmark side of each layer boundary.

The tracer patches public functions of the program's classes (the layer
boundaries listed in ``layers.py``) with wrappers that record one span per
call: name, start, end, span id, parent span id and request id.  Nothing
under ``src/`` changes; :meth:`Tracer.unpatch` restores every original.

A wrapper records only inside a request: on a thread whose span stack is
non-empty, or when one of the call's arguments is an object that
:meth:`Tracer.open_detached` tied to a span opened on another thread (the
engine hands a request to a worker thread that way, with its query
context or, for a mutation, the object written).  Calls outside requests —
the oracle's own metric evaluations, set-up — pass straight through.

Spans live in per-thread ``array`` buffers (48 bytes a span) until the
end of the run, when :meth:`Tracer.arrays` merges them for analysis and
:meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

import numpy as np


class _ThreadState:
    __slots__ = ("stack", "times", "ids")

    def __init__(self) -> None:
        self.stack: list[tuple[int, int]] = []  # (span id, request id)
        self.times = array("d")  # start, end per span
        self.ids = array("q")  # name index, span id, parent id, request id


class Tracer:
    """Records spans at patched boundaries; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._links: dict[int, tuple[Any, int, int]] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self._open: dict[int, tuple] = {}
        #: Result items reported by the request roots (for verify yield).
        self.results = 0

    # ------------------------------------------------------------- plumbing

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def name_id(self, name: str) -> int:
        with self._lock:
            idx = self._name_index.get(name)
            if idx is None:
                idx = self._name_index[name] = len(self.names)
                self.names.append(name)
            return idx

    def _linked(self, args: tuple, kwargs: dict) -> Optional[tuple[int, int]]:
        links = self._links
        if not links:
            return None
        for obj in itertools.chain(args, kwargs.values()):
            hit = links.get(id(obj))
            if hit is not None and hit[0] is obj:
                return hit[1], hit[2]
        return None

    # ---------------------------------------------------------------- spans

    @contextmanager
    def root(self, name: str) -> Iterator[int]:
        """A request's root span on this thread; yields its request id."""
        idx = self.name_id(name)
        state = self._state()
        sid = next(self._ids)
        state.stack.append((sid, sid))
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            state.stack.pop()
            state.times.extend((t0, t1))
            state.ids.extend((idx, sid, 0, sid))

    def open_detached(
        self, name: str, key: Any, linked: tuple, t0: Optional[float] = None
    ) -> None:
        """Open a root span, started at ``t0`` (default: now), that ends on
        another thread (:meth:`close_detached` with the same ``key``).
        Calls that carry one of the ``linked`` objects as an argument
        become its children wherever they run."""
        idx = self.name_id(name)
        sid = next(self._ids)
        start = time.perf_counter() if t0 is None else t0
        self._open[id(key)] = (idx, sid, 0, sid, start, linked)
        for obj in linked:
            self._links[id(obj)] = (obj, sid, sid)

    def close_detached(self, key: Any) -> None:
        entry = self._open.pop(id(key), None)
        if entry is None:
            return
        t1 = time.perf_counter()
        idx, sid, parent, rid, t0, linked = entry
        for obj in linked:
            self._links.pop(id(obj), None)
        state = self._state()
        state.times.extend((t0, t1))
        state.ids.extend((idx, sid, parent, rid))

    def add_results(self, n: int) -> None:
        with self._lock:
            self.results += n

    # -------------------------------------------------------------- patching

    def wrap(self, fn: Callable, name: str) -> Callable:
        idx = self.name_id(name)
        local = self._local
        ids = self._ids
        perf = time.perf_counter
        linked = self._linked
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = getattr(local, "state", None)
            if state is not None and state.stack:
                parent, rid = state.stack[-1]
            else:
                hit = linked(args, kwargs)
                if hit is None:
                    return fn(*args, **kwargs)
                parent, rid = hit
                state = state_of()
            sid = next(ids)
            stack = state.stack
            stack.append((sid, rid))
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                state.times.extend((t0, t1))
                state.ids.extend((idx, sid, parent, rid))

        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a function on a class) by a traced wrapper."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def patch_hook(self, owner: Any, attr: str, hook: Callable) -> None:
        """Replace ``owner.attr`` by ``hook(original)``'s return value."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, hook(original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- output

    def arrays(self) -> dict:
        """All recorded spans as numpy columns (row order is arbitrary)."""
        with self._lock:
            states = list(self._states)
        times = [np.frombuffer(s.times, dtype=np.float64) for s in states]
        ids = [np.frombuffer(s.ids, dtype=np.int64) for s in states]
        t = np.concatenate(times) if times else np.zeros(0)
        i = np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)
        t = t.reshape(-1, 2)
        i = i.reshape(-1, 4)
        return {
            "name": i[:, 0].copy(),
            "start": t[:, 0].copy(),
            "end": t[:, 1].copy(),
            "sid": i[:, 1].copy(),
            "parent": i[:, 2].copy(),
            "rid": i[:, 3].copy(),
            "names": list(self.names),
        }

    def save(self, path: str) -> int:
        """Write every span to ``path`` (compressed numpy); returns the count."""
        cols = self.arrays()
        names = np.array(cols.pop("names"), dtype=object)
        np.savez_compressed(path, names=names.astype(str), **cols)
        return len(cols["sid"])


# ---------------------------------------------------------------- analysis


def self_times(start, end, sid, parent) -> tuple[np.ndarray, np.ndarray]:
    """Each span's self time and the row index of its parent (-1 = root).

    Self time is the span's duration minus the part of its interval that
    its direct children cover.  Children are clipped to the parent, and
    children that overlap each other (run in parallel on other threads)
    are merged first, so overlapped time is subtracted once.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    sid = np.asarray(sid, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    n = len(sid)
    if n == 0:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    by_sid = np.argsort(sid, kind="stable")
    sorted_sid = sid[by_sid]
    pos = np.minimum(np.searchsorted(sorted_sid, parent), n - 1)
    found = (parent != 0) & (sorted_sid[pos] == parent)
    pidx = np.where(found, by_sid[pos], -1)

    rows = np.nonzero(pidx >= 0)[0]
    p = pidx[rows]
    cs = np.maximum(start[rows], start[p])
    ce = np.maximum(np.minimum(end[rows], end[p]), cs)
    order = np.lexsort((cs, p))
    p, cs, ce = p[order], cs[order], ce[order]

    covered = np.zeros(n)
    if len(p):
        same = p[1:] == p[:-1]
        overlapping = np.unique(p[1:][same & (cs[1:] < ce[:-1])])
        plain = ~np.isin(p, overlapping)
        np.add.at(covered, p[plain], (ce - cs)[plain])
        for parent_row in overlapping:
            mine = p == parent_row
            total, cur_s, cur_e = 0.0, None, None
            for s, e in zip(cs[mine], ce[mine]):
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        total += cur_e - cur_s
                    cur_s, cur_e = s, e
                elif e > cur_e:
                    cur_e = e
            if cur_e is not None:
                total += cur_e - cur_s
            covered[parent_row] = total
    return (end - start) - covered, pidx


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(cols: dict) -> dict:
    """Per-name call counts, durations and self times (seconds), per-layer
    self time, and how many spans of each layer sit directly under each
    span name (``children_of``)."""
    names = cols["names"]
    name = cols["name"]
    start, end = cols["start"], cols["end"]
    self_t, pidx = self_times(start, end, cols["sid"], cols["parent"])
    layers = [layer_of(nm) for nm in names]
    out: dict[str, Any] = {
        "calls": {},
        "self_s": {},
        "self_name_s": {},
        "dur_s": {},
        "roots": {},
        "root_s": 0.0,
        "children_of": {},
    }
    n_names = len(names)
    calls = np.bincount(name, minlength=n_names) if len(name) else np.zeros(n_names)
    self_by_name = (
        np.bincount(name, weights=self_t, minlength=n_names)
        if len(name)
        else np.zeros(n_names)
    )
    dur = end - start
    dur_by_name = (
        np.bincount(name, weights=dur, minlength=n_names)
        if len(name)
        else np.zeros(n_names)
    )
    for idx, nm in enumerate(names):
        out["calls"][nm] = int(calls[idx])
        out["dur_s"][nm] = float(dur_by_name[idx])
        out["self_name_s"][nm] = float(self_by_name[idx])
        layer = layers[idx]
        out["self_s"][layer] = out["self_s"].get(layer, 0.0) + float(self_by_name[idx])
    is_root = pidx < 0
    root_names = name[is_root]
    for idx, nm in enumerate(names):
        cnt = int(np.count_nonzero(root_names == idx))
        if cnt:
            out["roots"][nm] = cnt
    out["root_s"] = float(dur[is_root].sum())
    # "<child layer><<parent name>" -> count, e.g. "distance<spbtree.knn_query"
    has_parent = ~is_root
    if has_parent.any():
        uniq = sorted(set(layers))
        layer_id = np.array([uniq.index(layer) for layer in layers])
        pairs = layer_id[name[has_parent]] * n_names + name[pidx[has_parent]]
        counts = np.bincount(pairs, minlength=len(uniq) * n_names)
        for k in np.nonzero(counts)[0]:
            child, parent = divmod(int(k), n_names)
            out["children_of"][f"{uniq[child]}<{names[parent]}"] = int(counts[k])
    return out
