"""Shared performance counters.

The paper reports three metrics for every experiment: the number of page
accesses (*PA*), the number of distance computations (*compdists*), and CPU
(wall) time.  Every disk-resident structure in this library routes its reads
and writes through a :class:`PageAccessCounter`, and every metric-space index
wraps its distance function in a counting wrapper (see
:mod:`repro.distance.base`), so the three metrics can be read off uniformly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

# --------------------------------------------------------------- stat shards
#
# Concurrent queries cannot share the tree-global counters: two queries
# racing on ``counter.reads += 1`` clobber each other's deltas.  A *stat
# shard* is any object with integer ``page_accesses`` and ``compdists``
# attributes (in practice a :class:`repro.service.QueryContext`).  A thread
# registers its active shard here and every page access / distance
# computation performed *on that thread* is tallied into it as well as into
# the global counters — per-query accounting becomes exact without touching
# the single-threaded paper experiments, which never register a shard.

_local = threading.local()


def push_stat_shard(shard: object) -> None:
    """Make ``shard`` the current thread's accounting sink (stackable)."""
    stack = getattr(_local, "shards", None)
    if stack is None:
        stack = _local.shards = []
    stack.append(shard)


def pop_stat_shard() -> None:
    """Undo the most recent :func:`push_stat_shard` on this thread."""
    stack = getattr(_local, "shards", None)
    if not stack:
        raise RuntimeError(
            f"no stat shard to pop on thread "
            f"{threading.current_thread().name!r}: push/pop are unbalanced "
            f"(was a QueryContext deactivated twice?)"
        )
    stack.pop()


def shard_depth() -> int:
    """How many stat shards the current thread has pushed (0 = none)."""
    stack = getattr(_local, "shards", None)
    return len(stack) if stack else 0


def trim_stat_shards(depth: int) -> int:
    """Pop shards until the stack is back to ``depth``; returns how many
    were leaked.  A cleanup guard for workers that run arbitrary query
    code: an attempt that raises between a push and its matching pop must
    not poison the *next* query's accounting on the same thread."""
    stack = getattr(_local, "shards", None)
    leaked = 0
    while stack and len(stack) > depth:
        stack.pop()
        leaked += 1
    return leaked


def record_page_access() -> None:
    """Credit one page access to the current thread's shard, if any."""
    stack = getattr(_local, "shards", None)
    if stack:
        stack[-1].page_accesses += 1


def record_compdist() -> None:
    """Credit one distance computation to the current thread's shard."""
    stack = getattr(_local, "shards", None)
    if stack:
        stack[-1].compdists += 1


def credit_stat_shard(shard: object) -> None:
    """Fold a finished shard's totals into the current thread's shard.

    A query that accounted on a private shard calls this after popping it,
    so an enclosing shard ends up credited exactly as if the private one
    had never been pushed.  No-op when no shard is active.
    """
    stack = getattr(_local, "shards", None)
    if stack:
        stack[-1].compdists += shard.compdists  # type: ignore[attr-defined]
        stack[-1].page_accesses += shard.page_accesses  # type: ignore[attr-defined]


@dataclass
class PageAccessCounter:
    """Counts logical page reads and writes.

    A "page access" is counted the way the paper counts it: one unit per page
    fetched from (or flushed to) the underlying file.  Reads served from a
    buffer pool (see :class:`repro.storage.buffer.BufferPool`) do not reach
    this counter, which is precisely what the cache-size experiment (Fig. 10)
    measures.
    """

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def count_read(self) -> None:
        """Count one page read (also credited to the active stat shard)."""
        self.reads += 1
        record_page_access()

    def count_write(self) -> None:
        """Count one page write (also credited to the active stat shard)."""
        self.writes += 1
        record_page_access()

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0


@dataclass
class QueryStats:
    """Aggregated metrics for one query or one batch of queries."""

    page_accesses: int = 0
    distance_computations: int = 0
    elapsed_seconds: float = 0.0
    result_size: int = 0

    def add(self, other: "QueryStats") -> None:
        self.page_accesses += other.page_accesses
        self.distance_computations += other.distance_computations
        self.elapsed_seconds += other.elapsed_seconds
        self.result_size += other.result_size

    def averaged(self, n: int) -> "AveragedStats":
        """Return per-query averages over ``n`` queries."""
        if n <= 0:
            raise ValueError("n must be positive")
        return AveragedStats(
            page_accesses=self.page_accesses / n,
            distance_computations=self.distance_computations / n,
            elapsed_seconds=self.elapsed_seconds / n,
            result_size=self.result_size / n,
        )


@dataclass
class AveragedStats:
    """Per-query averages over a batch — honestly typed as floats.

    Same field names as :class:`QueryStats` (so report formatting code is
    interchangeable), but the fields are fractional by construction:
    ``QueryStats.averaged`` used to stuff floats into int-annotated fields,
    which type checkers — and readers — took at their word.
    """

    page_accesses: float = 0.0
    distance_computations: float = 0.0
    elapsed_seconds: float = 0.0
    result_size: float = 0.0


@dataclass
class StatsSession:
    """Snapshot-based measurement of an index's counters.

    Usage::

        with StatsSession(index) as session:
            index.range_query(q, r)
        stats = session.stats
    """

    index: object
    stats: QueryStats = field(default_factory=QueryStats)
    _pa_before: int = 0
    _dc_before: int = 0
    _t_before: float = 0.0

    def __enter__(self) -> "StatsSession":
        self._pa_before = self.index.page_accesses
        self._dc_before = self.index.distance_computations
        self._t_before = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stats.elapsed_seconds = time.perf_counter() - self._t_before
        self.stats.page_accesses = self.index.page_accesses - self._pa_before
        self.stats.distance_computations = (
            self.index.distance_computations - self._dc_before
        )
