"""A sharded SPB-tree: N full index stacks behind one logical interface.

``ShardedIndex`` partitions one dataset by **disjoint SFC key ranges** —
the property PAPER.md §4 gives us for free: the RAF already stores objects
in ascending SFC order, so cutting the key space at N−1 points yields N
shards that are contiguous runs of the same linear order, and therefore
disjoint regions of pivot space.  Each shard is a complete single-tree
stack (page file + buffer pool + RAF + B+-tree + WAL) with its own
generation; the cluster adds

* a :class:`Router` (shard-level Lemma 1/2/3 pruning over per-shard MBBs),
* an atomically-committed catalog (:mod:`repro.cluster.catalog`),
* scatter-gather queries that split one :class:`QueryContext` budget into
  per-shard sub-contexts and merge degraded partials honestly, and
* crash-safe online rebalancing (split a hot shard at an SFC midpoint,
  merge cold neighbours) committed by one catalog rename.

Consistency model: mutations take the cluster's read side (they touch one
shard, whose own EpochLock serialises them) while structural changes
(rebalance, checkpoint, save) take the write side.  A concurrent query
sees each shard at some epoch of its own — per-shard snapshot
consistency, not a cluster-wide snapshot.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.cluster.catalog import (
    ClusterCatalog,
    ReplicaMeta,
    ShardMeta,
    _serializer_named,
    load_catalog,
    save_catalog,
)
from repro.cluster.router import Router
from repro.core.mapping import PivotSpace
from repro.core.persist import load_tree, save_tree
from repro.core.pivots import select_pivots
from repro.core.spbtree import _CURVES, SPBTree
from repro.distance.base import CountingDistance, Metric
from repro.storage.faults import FaultInjector
from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.obs.trace import NULL_TRACE, QueryTrace
from repro.service.context import (
    EpochLock,
    ExhaustionReason,
    KnnCollector,
    Overloaded,
    QueryContext,
    QueryResult,
    _Exhausted,
    _Unlimited,
)
from repro.stats import credit_stat_shard
from repro.storage.pagefile import DEFAULT_PAGE_SIZE
from repro.storage.serializers import Serializer, serializer_for
from repro.storage.wal import WAL_FILE, WriteAheadLog


@dataclass(frozen=True)
class ShardExhaustion(ExhaustionReason):
    """An :class:`ExhaustionReason` that names the shard whose sub-budget
    tripped — what a degraded scatter reports so an operator can tell a
    hot shard from a globally short deadline."""

    shard: int = -1

    def __str__(self) -> str:
        if self.kind == "quorum":
            return (
                f"shard {self.shard}: replica set degraded "
                f"({self.spent:.0f} healthy members, quorum {self.limit:.0f})"
            )
        return f"shard {self.shard}: {super().__str__()}"


def _name_shard(reason: ExhaustionReason, shard_id: int) -> ShardExhaustion:
    return ShardExhaustion(
        kind=reason.kind, limit=reason.limit, spent=reason.spent, shard=shard_id
    )


class Shard:
    """One member of the cluster: a full SPB-tree plus its key range."""

    __slots__ = ("shard_id", "key_lo", "key_hi", "tree", "dirname")

    def __init__(
        self,
        shard_id: int,
        key_lo: int,
        key_hi: int,
        tree: SPBTree,
        dirname: Optional[str] = None,
    ) -> None:
        self.shard_id = shard_id
        self.key_lo = key_lo
        self.key_hi = key_hi
        self.tree = tree
        self.dirname = dirname if dirname is not None else f"shard-{shard_id}"

    def __repr__(self) -> str:
        return (
            f"Shard({self.shard_id}, [{self.key_lo}, {self.key_hi}), "
            f"{self.tree.object_count} objects)"
        )


class ClusterResult(QueryResult):
    """A :class:`QueryResult` annotated with the scatter that produced it."""

    __slots__ = ("per_shard", "shards_visited", "shards_pruned")

    def __init__(self, items: list, **kwargs: Any) -> None:
        super().__init__(items, **kwargs)
        #: ``shard_id -> {"complete", "reason", "compdists", "page_accesses"}``
        self.per_shard: dict[int, dict] = {}
        self.shards_visited = 0
        self.shards_pruned = 0


@dataclass
class ClusterVerifyReport:
    """Outcome of :meth:`ShardedIndex.verify`."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    shards_checked: int = 0
    objects_checked: int = 0
    shard_reports: dict[int, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAILED ({len(self.errors)} errors)"
        lines = [
            f"cluster verify: {status}",
            f"  shards checked:  {self.shards_checked}",
            f"  objects checked: {self.objects_checked}",
        ]
        for err in self.errors:
            lines.append(f"  error: {err}")
        for warn in self.warnings:
            lines.append(f"  warning: {warn}")
        return "\n".join(lines)


class ShardedIndex:
    """One logical metric index served by N SPB-tree shards."""

    def __init__(
        self,
        metric: Metric,
        pivots: Sequence[Any],
        d_plus: float,
        curve: str = "hilbert",
        delta: Optional[float] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 32,
        serializer: Optional[Serializer] = None,
        checksums: bool = False,
    ) -> None:
        #: Cluster-level distance counter: pays the |P| query-mapping
        #: distances once per query, regardless of how many shards run.
        self.distance = CountingDistance(metric)
        self.space = PivotSpace(pivots, self.distance, d_plus, delta)
        try:
            curve_cls = _CURVES[curve]
        except KeyError:
            raise ValueError(
                f"unknown curve {curve!r}; available: {sorted(_CURVES)}"
            ) from None
        self.curve = curve_cls(self.space.num_pivots, self.space.bits)
        self._curve_name = curve
        self._serializer = serializer
        self._page_size = page_size
        self._cache_pages = cache_pages
        self._checksums = checksums
        self.shards: list[Shard] = []
        self.router = Router(self.space, self.curve)
        #: Readers = queries and single-shard mutations; writer = structural
        #: changes (rebalance, checkpoint, save) that swap the shard list.
        self._lock = EpochLock()
        self.directory: Optional[str] = None
        self._wal_fsync = True
        self._logging = False
        self._faults: Optional[FaultInjector] = None
        self.next_shard_id = 0
        #: Replica membership carried through from the catalog (shard id →
        #: rows) and the recorded read-routing policy.  The base class only
        #: preserves them across save/load; ``repro.replication`` attaches
        #: live replica sets and overrides :meth:`_read_tree` to fan reads
        #: across them.
        self._replica_meta: dict[int, list[ReplicaMeta]] = {}
        self._read_policy = "primary-only"

    # --------------------------------------------------------- construction

    @classmethod
    def build(
        cls,
        objects: Sequence[Any],
        metric: Metric,
        shards: int = 4,
        num_pivots: int = 5,
        curve: str = "hilbert",
        pivot_method: str = "hfi",
        pivots: Optional[Sequence[Any]] = None,
        delta: Optional[float] = None,
        d_plus: Optional[float] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 32,
        seed: int = 7,
        checksums: bool = False,
    ) -> "ShardedIndex":
        """Bulk-load a cluster: one pivot table, one |O| × |P| mapping pass,
        then the sorted keyed objects cut at object-count quantiles of the
        SFC order (so shards start balanced by population, not key span).
        """
        if not objects:
            raise ValueError("cannot build an index over an empty dataset")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if pivots is None:
            pivots = select_pivots(
                objects, num_pivots, metric, method=pivot_method, seed=seed
            )
        if d_plus is None:
            d_plus = metric.max_distance(objects)
        self = cls(
            metric,
            pivots,
            d_plus,
            curve=curve,
            delta=delta,
            page_size=page_size,
            cache_pages=cache_pages,
            serializer=serializer_for(objects[0]),
            checksums=checksums,
        )
        self.shards = self._cut_shards(objects, shards)
        self.router.reset(self.shards)
        self._gauge_all()
        return self

    @staticmethod
    def _split_bounds(
        keyed: Sequence[tuple[int, Any]], shards: int
    ) -> list[int]:
        """Strictly increasing range starts (first always 0), at most
        ``shards`` of them, cutting ``keyed`` near population quantiles.
        Duplicate keys never straddle a boundary."""
        n = len(keyed)
        bounds = [0]
        start = 0
        for i in range(1, shards):
            j = (i * n) // shards
            if j <= start:
                continue
            if keyed[j][0] <= keyed[start][0]:
                j = start + 1
                while j < n and keyed[j][0] <= keyed[start][0]:
                    j += 1
                if j >= n:
                    break
            bounds.append(keyed[j][0])
            start = j
        return bounds

    def _cut_shards(self, objects: Sequence[Any], count: int) -> list[Shard]:
        """Map ``objects`` once (|O| × |P|) and cut their SFC order into at
        most ``count`` fresh shards at population quantiles."""
        keyed = sorted(
            ((self.curve.encode(self.space.grid(obj)), obj) for obj in objects),
            key=lambda pair: pair[0],
        )
        bounds = self._split_bounds(keyed, count)
        # A small throwaway build carries the sampled cost-model statistics
        # (pair distances, exponent, ND_k corrections); the keyed shard
        # builds inherit them so every shard prices visits the same way.
        step = max(1, len(keyed) // 256)
        sample = [obj for _, obj in keyed[::step]][:256]
        donor = None
        if len(sample) >= 2:
            donor = SPBTree.build(
                sample,
                self.distance.metric,
                pivots=list(self.space.pivots),
                delta=self.space.delta,
                d_plus=self.space.d_plus,
                curve=self._curve_name,
                page_size=self._page_size,
                cache_pages=self._cache_pages,
                checksums=self._checksums,
            )
        shards = []
        start = 0
        for i, lo in enumerate(bounds):
            hi = bounds[i + 1] if i + 1 < len(bounds) else self.curve.max_value
            end = start
            while end < len(keyed) and keyed[end][0] < hi:
                end += 1
            tree = self._tree_from_items(keyed[start:end], stats_from=donor)
            shards.append(Shard(self.next_shard_id, lo, hi, tree))
            self.next_shard_id += 1
            start = end
        return shards

    def _tree_from_items(
        self,
        items: Sequence[tuple[int, Any]],
        stats_from: Optional[SPBTree] = None,
    ) -> SPBTree:
        return SPBTree.build_keyed(
            items,
            self.distance.metric,
            self.space.pivots,
            self.space.d_plus,
            curve=self._curve_name,
            delta=self.space.delta,
            page_size=self._page_size,
            cache_pages=self._cache_pages,
            serializer=self._serializer,
            checksums=self._checksums,
            stats_from=stats_from,
        )

    # ---------------------------------------------------------- persistence

    @classmethod
    def load(
        cls, directory: str, metric: Metric, replay_wal: bool = True
    ) -> "ShardedIndex":
        """Reopen a cluster read-only from its catalog."""
        cat = load_catalog(directory)
        if cat.metric_name != metric.name:
            raise ValueError(
                f"cluster was built with metric {cat.metric_name!r}, "
                f"got {metric.name!r}"
            )
        self = cls(
            metric,
            cat.pivots,
            cat.d_plus,
            curve=cat.curve,
            delta=cat.delta,
            page_size=cat.page_size,
            cache_pages=cat.cache_pages,
            serializer=_serializer_named(cat.serializer),
            checksums=cat.checksums,
        )
        self.next_shard_id = cat.next_shard_id
        for meta in cat.shards:
            sdir = os.path.join(directory, meta.directory)
            if os.path.exists(os.path.join(sdir, "spbtree.json")):
                tree = load_tree(sdir, metric, replay_wal=replay_wal)
            else:
                # A shard that was empty at save time has no page files;
                # rebuild it as a fresh empty stack.
                tree = SPBTree(
                    metric,
                    cat.pivots,
                    cat.d_plus,
                    curve=cat.curve,
                    delta=cat.delta,
                    page_size=cat.page_size,
                    cache_pages=cat.cache_pages,
                    serializer=self._serializer,
                    checksums=cat.checksums,
                )
            self.shards.append(
                Shard(meta.shard_id, meta.key_lo, meta.key_hi, tree, meta.directory)
            )
        self.router.reset(self.shards)
        self.directory = directory
        self._replica_meta = {
            meta.shard_id: list(meta.replicas)
            for meta in cat.shards
            if meta.replicas
        }
        self._read_policy = cat.read_policy
        self._cleanup_unreferenced()
        self._gauge_all()
        return self

    @classmethod
    def open(
        cls,
        directory: str,
        metric: Metric,
        wal_fsync: bool = True,
        faults: Optional[FaultInjector] = None,
    ) -> "ShardedIndex":
        """Reopen for writing: load, then attach a WAL to every shard."""
        self = cls.load(directory, metric)
        self._wal_fsync = wal_fsync
        self._faults = faults
        for shard in self.shards:
            self._attach_wal(shard)
        self._logging = True
        return self

    def save(
        self, directory: str, faults: Optional[FaultInjector] = None
    ) -> None:
        """Persist every shard, then commit the cluster catalog."""
        os.makedirs(directory, exist_ok=True)
        with self._lock.write():
            for shard in self.shards:
                if shard.tree.raf is None:
                    continue  # never-written shard: catalog row only
                gen = save_tree(
                    shard.tree, os.path.join(directory, shard.dirname), faults
                )
                shard.tree._generation = gen
            self.directory = directory
            self._write_catalog(faults)

    def checkpoint(self, faults: Optional[FaultInjector] = None) -> None:
        """Fold every shard's WAL into a new generation, then refresh the
        catalog.  A crash between the two leaves stale (not wrong) cluster
        rows: shard catalogs stay authoritative for loading."""
        if self.directory is None:
            raise ValueError("cluster has no directory; save() it first")
        with self._lock.write():
            for shard in self.shards:
                if shard.tree.wal is None or shard.tree.raf is None:
                    continue
                shard.tree.checkpoint(
                    os.path.join(self.directory, shard.dirname), faults=faults
                )
            self._write_catalog(faults)

    def close(self) -> None:
        """Release every shard's WAL file handle."""
        for shard in self.shards:
            if shard.tree.wal is not None:
                shard.tree.wal.close()
                shard.tree.wal = None
        self._logging = False

    def _attach_wal(self, shard: Shard) -> None:
        assert self.directory is not None
        sdir = os.path.join(self.directory, shard.dirname)
        os.makedirs(sdir, exist_ok=True)
        wal = WriteAheadLog(
            os.path.join(sdir, WAL_FILE),
            fsync=self._wal_fsync,
            faults=self._faults,
        )
        shard.tree.begin_logging(wal)

    def _write_catalog(self, faults: Optional[FaultInjector]) -> None:
        assert self.directory is not None
        save_catalog(self.directory, self._catalog(), faults)

    def _catalog(self) -> ClusterCatalog:
        serializer = self._serializer
        if serializer is None:
            for shard in self.shards:
                if shard.tree.raf is not None:
                    serializer = shard.tree.raf.serializer
                    break
        if serializer is None:
            raise ValueError("cannot persist an empty cluster")
        self._serializer = serializer
        return ClusterCatalog(
            metric_name=self.distance.metric.name,
            serializer=serializer.name,
            curve=self._curve_name,
            d_plus=self.space.d_plus,
            delta=self.space.delta,
            pivots=list(self.space.pivots),
            page_size=self._page_size,
            cache_pages=self._cache_pages,
            checksums=self._checksums,
            next_shard_id=self.next_shard_id,
            shards=[
                ShardMeta(
                    shard_id=s.shard_id,
                    directory=s.dirname,
                    key_lo=s.key_lo,
                    key_hi=s.key_hi,
                    generation=s.tree._generation,
                    object_count=s.tree.object_count,
                    replicas=list(self._replica_meta.get(s.shard_id, [])),
                )
                for s in self.shards
            ],
            read_policy=self._read_policy,
        )

    def _cleanup_unreferenced(self) -> None:
        """Remove ``shard-*`` directories the catalog no longer names —
        debris from a crash on either side of a rebalance commit.  Replica
        directories named by the catalog's replica rows are live too."""
        if self.directory is None:
            return
        referenced = {s.dirname for s in self.shards}
        for rows in self._replica_meta.values():
            referenced.update(r.directory for r in rows)
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not name.startswith("shard-") or name in referenced:
                continue
            path = os.path.join(self.directory, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)

    # -------------------------------------------------------------- writes

    def insert(self, obj: Any) -> None:
        """Map once at cluster level, then route to the owning shard's WAL."""
        with self._lock.read():
            grid = self.space.grid(obj)
            key = self.curve.encode(grid)
            shard = self.router.shard_for_key(key)
            shard.tree.insert(obj, grid=grid)
            self.router.note_insert(shard)
            self._gauge_shard(shard)

    def delete(self, obj: Any) -> bool:
        with self._lock.read():
            grid = self.space.grid(obj)
            key = self.curve.encode(grid)
            shard = self.router.shard_for_key(key)
            removed = shard.tree.delete(obj, grid=grid)
            if removed:
                self.router.note_delete(shard)
                self._gauge_shard(shard)
            return removed

    # ------------------------------------------------------------- queries

    def _read_tree(self, shard: Shard, ctx: QueryContext) -> SPBTree:
        """The tree that serves one read for ``shard``.

        The base cluster always reads the shard's own (primary) tree; the
        replicated cluster overrides this to fan reads across the shard's
        healthy replicas under the catalog's read-routing policy (and,
        when ``ctx`` carries a trace, records which replica served the
        read).  Each scatter job resolves its tree through this hook at
        execution time, so one query's sub-reads route independently.
        """
        return shard.tree

    def range_query(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext] = None,
        engine: Optional[Any] = None,
    ) -> "list[Any] | ClusterResult":
        """Scatter to Lemma-1-intersecting shards, gather, merge.

        Shards Lemma 2 accepts wholesale are streamed from their RAFs with
        zero distance computations.  With a ``context`` the remaining
        compdist/PA budget is split evenly across the scattered shards
        (the deadline and cancel token are shared as-is) and partial
        sub-results merge into one honest partial.  Without one the same
        scatter runs unlimited and the plain list comes back.
        """
        out = self._range_scatter("range", query, radius, context, engine)
        return out if context is not None else out.items

    def range_count(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext] = None,
        engine: Optional[Any] = None,
    ) -> "int | ClusterResult":
        """|RQ(q, O, r)| across shards.  Lemma-2-accepted shards contribute
        their live object count with zero page accesses."""
        out = self._range_scatter("count", query, radius, context, engine)
        return out if context is not None else out.count

    def _range_scatter(
        self,
        kind: str,
        query: Any,
        radius: float,
        context: Optional[QueryContext],
        engine: Optional[Any],
    ) -> ClusterResult:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        counting = kind == "count"

        def job(shard: Shard, accept_all: bool, phi_q: tuple) -> Callable:
            # Each job resolves its tree when it runs (inline or on the
            # pool), from the sub-context the job runner hands it.
            if not accept_all:
                method = "range_count" if counting else "range_query"
                return lambda sub: getattr(self._read_tree(shard, sub), method)(
                    query, radius, context=sub, phi_q=phi_q
                )
            if counting:  # Lemma 2 at shard scale: every live object counts
                return lambda sub: QueryResult(
                    [], count=self._read_tree(shard, sub).object_count
                )
            return lambda sub: self._stream_all(
                self._read_tree(shard, sub), sub, phi_q
            )

        def scatter(ctx: QueryContext, phi_q: tuple, plan: tuple) -> ClusterResult:
            visit, pruned = plan
            jobs = [(shard, job(shard, accept, phi_q)) for shard, accept in visit]
            return self._gather(kind, ctx, jobs, engine, pruned)

        return self._query(kind, query, radius, context, scatter)

    def knn_query(
        self,
        query: Any,
        k: int,
        traversal: str = "incremental",
        context: Optional[QueryContext] = None,
        engine: Optional[Any] = None,
        strategy: str = "best-first",
    ) -> "list[tuple[float, Any]] | ClusterResult":
        """Cluster-scale NNA with the paper's two strategies lifted to shards.

        ``"best-first"`` visits shards in ascending MIND order (Lemma 3,
        ties by the cost model's leaf-count proxy), sharing one
        :class:`KnnCollector` so the k-th-distance bound from early shards
        prunes later ones outright.  ``"broadcast"`` scatters to every
        non-empty shard at once — on ``engine``'s pool when given — into a
        thread-safe shared collector.  Partial answers merge to a confirmed
        prefix: the cut is the smallest frontier or unvisited-shard MIND,
        so every reported neighbour is a true kNN member.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if traversal not in ("incremental", "greedy"):
            raise ValueError("traversal must be 'incremental' or 'greedy'")
        if strategy not in ("best-first", "broadcast"):
            raise ValueError("strategy must be 'best-first' or 'broadcast'")

        def search(shard: Shard, collector: KnnCollector, phi_q: tuple):
            return lambda sub: self._read_tree(shard, sub).knn_into(
                query, k, collector, sub, traversal=traversal, phi_q=phi_q
            )

        def scatter(ctx: QueryContext, phi_q: tuple, order: list) -> ClusterResult:
            if strategy == "broadcast":
                collector = KnnCollector(k, thread_safe=True)
                jobs = [(shard, search(shard, collector, phi_q)) for _, shard in order]
                return self._confirm(
                    ctx, self._gather("knn", ctx, jobs, engine, 0), collector
                )
            collector = KnnCollector(k)
            out = ClusterResult([])
            for i, (mind, shard) in enumerate(order):
                if len(collector) >= k and mind >= collector.bound():
                    # Ascending MINDs: every later shard is pruned too,
                    # and (bound monotonicity) constrains nothing.
                    out.shards_pruned = len(order) - i
                    break
                sub = self._sub_context(ctx, 1)
                part = search(shard, collector, phi_q)(sub)
                self._absorb(ctx, out, shard, sub, part, "knn")
                if not part.complete:
                    # Unvisited shards bound unseen objects by their MIND.
                    later = [m for m, _ in order[i + 1:]]
                    out.frontier = min([out.frontier, *later])
                    break
            return self._confirm(ctx, out, collector)

        out = self._query("knn", query, None, context, scatter)
        return out if context is not None else out.items

    # ----------------------------------------------------- scatter plumbing

    def _query(
        self,
        kind: str,
        query: Any,
        radius: Optional[float],
        context: Optional[QueryContext],
        scatter: Callable[[QueryContext, tuple, Any], ClusterResult],
    ) -> ClusterResult:
        """The protocol every cluster query shares around its scatter.

        Takes the cluster's read side, activates the context, maps the
        query once (on the cluster's counter, under the ``map`` span),
        plans the shards to visit (under the ``plan`` span: the Router's
        kNN order, or its range plan for ``radius``), runs
        ``scatter(ctx, phi_q, plan)``, raises the strict-mode
        exception for a degraded answer, and finishes the trace and stats.
        A query whose budget cannot even cover the mapping degrades to an
        empty partial.  Without a ``context`` the scatter runs on a
        private unlimited one whose costs are folded into the stat shard
        that was active before the call.
        """
        ctx = context or _Unlimited()
        tr = ctx.trace or NULL_TRACE
        try:
            with self._lock.read(), ctx.activate():
                t0 = time.perf_counter()
                try:
                    ctx.checkpoint()
                    with tr.region(tr.span("map"), ctx):
                        phi_q = self.space.phi(query)
                    ctx.checkpoint()
                except _Exhausted as exc:
                    out = ClusterResult([], complete=False, reason=exc.reason)
                else:
                    # The router reads each shard's root page lazily to
                    # learn its MBB, so a plan after a cold open costs
                    # page accesses: they belong to the ``plan`` span.
                    with tr.region(tr.span("plan"), ctx):
                        if radius is None:
                            plan = self.router.knn_order(phi_q, trace=ctx.trace)
                        else:
                            plan = self.router.range_plan(
                                phi_q, radius, trace=ctx.trace
                            )
                    out = scatter(ctx, phi_q, plan)
                    self._count_scatter(kind, out.shards_visited, out.shards_pruned)
                if not out.complete and ctx.strict:
                    raise ctx.raise_for(out.reason) from None
                tr.finish(ctx, out.complete, out.reason)
                size = 0 if kind == "count" else len(out.items)
                out.stats = ctx.stats(time.perf_counter() - t0, size)
        finally:
            if ctx is not context:  # private: credit the enclosing shard
                credit_stat_shard(ctx)
        return out

    def _gather(
        self,
        kind: str,
        ctx: QueryContext,
        jobs: list[tuple[Shard, Callable]],
        engine: Optional[Any],
        pruned: int,
    ) -> ClusterResult:
        """Run every ``(shard, fn)`` job on an even slice of the remaining
        budget, then merge: items concatenate and counts add."""
        parts = max(1, len(jobs))
        subs = [self._sub_context(ctx, parts) for _ in jobs]
        outs = self._run_jobs(
            [(shard, sub, fn) for (shard, fn), sub in zip(jobs, subs)], engine
        )
        merge_t0 = time.perf_counter()
        out = ClusterResult([])
        out.shards_pruned = pruned
        for (shard, _), sub, part in zip(jobs, subs, outs):
            self._absorb(ctx, out, shard, sub, part, kind)
            out.items.extend(part.items)
            out.count += part.count
        self._charge_merge(ctx, merge_t0)
        return out

    def _confirm(
        self, ctx: QueryContext, out: ClusterResult, collector: KnnCollector
    ) -> ClusterResult:
        """Fill a kNN result from the shared collector, cut to the
        confirmed prefix (``d <= frontier``) when some shard degraded."""
        t0 = time.perf_counter()
        items = collector.items()
        if not out.complete:
            items = [(d, obj) for d, obj in items if d <= out.frontier]
        out.items, out.count = items, len(items)
        self._charge_merge(ctx, t0)
        return out

    @staticmethod
    def _charge_merge(ctx: QueryContext, t0: float) -> None:
        if ctx.trace is not None:
            ctx.trace.span("merge").elapsed += time.perf_counter() - t0

    def _sub_context(self, ctx: QueryContext, parts: int) -> QueryContext:
        """A per-shard slice of the remaining budget.  The deadline and
        cancel token are shared (absolute instants split themselves); the
        countable budgets divide evenly so the sum of slices never exceeds
        what is left.  Sub-contexts are never strict — the cluster decides
        how to surface degradation after the merge."""

        def share(maximum: Optional[int], spent: int) -> Optional[int]:
            if maximum is None:
                return None
            return max(0, (maximum - spent) // parts)

        sub = QueryContext(
            deadline=ctx.deadline,
            max_compdists=share(ctx.max_compdists, ctx.compdists),
            max_page_accesses=share(ctx.max_page_accesses, ctx.page_accesses),
            strict=False,
            cancel_token=ctx.cancel_token,
            request_id=ctx.request_id,
        )
        if ctx.trace is not None:
            sub.trace = QueryTrace("shard")
        return sub

    def _run_jobs(
        self,
        jobs: list[tuple[Shard, QueryContext, Callable]],
        engine: Optional[Any],
    ) -> list[Any]:
        """Run ``fn(sub_context)`` for every job, on ``engine``'s pool when
        given (falling back inline on backpressure), else sequentially."""
        if engine is None or len(jobs) <= 1:
            return [fn(sub) for _, sub, fn in jobs]
        pendings: list[Optional[Any]] = []
        for _, sub, fn in jobs:
            try:
                pendings.append(engine.submit_task(fn, sub))
            except Overloaded:
                pendings.append(None)
        outs = []
        for (_, sub, fn), pending in zip(jobs, pendings):
            outs.append(fn(sub) if pending is None else pending.result())
        return outs

    def _absorb(
        self,
        ctx: QueryContext,
        out: ClusterResult,
        shard: Shard,
        sub: QueryContext,
        part: QueryResult,
        kind: str,
    ) -> None:
        """Fold one finished shard read into the parent context and the
        merged result: counters add up exactly, the shard's work appears
        as one ``shard-<id>`` span under the parent trace root (carrying
        the sub-trace's children), and the first degraded shard names the
        result's reason.  A degraded kNN read lowers the result's
        ``frontier`` to its own."""
        ctx.compdists += sub.compdists
        ctx.page_accesses += sub.page_accesses
        out.shards_visited += 1
        out.per_shard[shard.shard_id] = {
            "complete": part.complete,
            "reason": str(part.reason) if part.reason is not None else None,
            "compdists": sub.compdists,
            "page_accesses": sub.page_accesses,
        }
        if not part.complete:
            if out.complete:
                out.complete = False
                out.reason = _name_shard(part.reason, shard.shard_id)
            if kind == "knn":
                out.frontier = min(
                    part.frontier,
                    float("inf") if out.frontier is None else out.frontier,
                )
        if ctx.trace is not None:
            span = ctx.trace.span(f"shard-{shard.shard_id}")
            span.compdists += sub.compdists
            span.page_accesses += sub.page_accesses
            span.elapsed += part.stats.elapsed_seconds
            span.bump("visits")
            if sub.trace is not None:
                span.children.extend(sub.trace.root.children)
                for key, value in sub.trace.root.counts.items():
                    # Identity annotations (which replica served the read)
                    # overwrite; everything else accumulates.
                    if isinstance(value, int):
                        span.counts[key] = span.counts.get(key, 0) + value
                    else:
                        span.counts[key] = value
        if _obsreg.ENABLED:
            _instruments.cluster().shard_queries.labels(
                kind=kind, shard=str(shard.shard_id)
            ).inc()

    @staticmethod
    def _stream_all(tree: SPBTree, sub: QueryContext, phi_q: tuple) -> QueryResult:
        """Lemma 2 at shard scale: stream the whole RAF, zero compdists."""
        items: list[Any] = []

        def stream(ctx: QueryContext, tr: Any, phi_q: tuple) -> None:
            for obj in tree.objects():
                ctx.checkpoint()
                items.append(obj)

        out = tree._run(sub, None, phi_q, stream)
        out.items, out.count = items, len(items)
        return out

    def _count_scatter(self, kind: str, visited: int, pruned: int) -> None:
        if _obsreg.ENABLED:
            inst = _instruments.cluster()
            if visited:
                inst.shards_visited.labels(kind=kind).inc(visited)
            if pruned:
                inst.shards_pruned.labels(kind=kind).inc(pruned)

    def _gauge_shard(self, shard: Shard) -> None:
        if _obsreg.ENABLED:
            _instruments.cluster().shard_objects.labels(
                shard=str(shard.shard_id)
            ).set(shard.tree.object_count)

    def _gauge_all(self) -> None:
        if _obsreg.ENABLED:
            for shard in self.shards:
                self._gauge_shard(shard)

    # ----------------------------------------------------------- rebalance

    def rebalance(
        self,
        split: Optional[int] = None,
        merge: Optional[tuple[int, int]] = None,
        faults: Optional[FaultInjector] = None,
    ) -> Optional[dict]:
        """One crash-safe rebalance step.

        ``split=<shard_id>`` cuts that shard at the SFC median of its live
        keys; ``merge=(a, b)`` folds two range-adjacent shards into one.
        With neither, a simple policy picks: split the largest shard when
        it holds at least twice the per-shard average, else merge the
        lightest adjacent pair when their sum fits under the average.
        Returns a description of what happened, or None for no-op.

        Crash safety: the new shards' page files are written to *fresh*
        ``shard-<id>`` directories first; the single atomic rewrite of
        ``cluster.json`` is the commit point; old directories are removed
        (best-effort) only after it.  Killed anywhere, a reload sees either
        the pre- or the post-rebalance catalog — never a hybrid — and
        :meth:`load` sweeps whichever directories lost.
        """
        if split is not None and merge is not None:
            raise ValueError("pass split= or merge=, not both")
        with self._lock.write():
            if split is None and merge is None:
                split, merge = self._auto_plan()
                if split is None and merge is None:
                    return None
            if split is not None:
                return self._split(split, faults)
            return self._merge(merge, faults)

    def _auto_plan(self) -> tuple[Optional[int], Optional[tuple[int, int]]]:
        counts = [s.tree.object_count for s in self.shards]
        total = sum(counts)
        if not total or not self.shards:
            return None, None
        avg = total / len(self.shards)
        hot = max(self.shards, key=lambda s: s.tree.object_count)
        if hot.tree.object_count >= 2 * avg and hot.tree.object_count >= 2:
            return hot.shard_id, None
        ordered = sorted(self.shards, key=lambda s: s.key_lo)
        best: Optional[tuple[int, int]] = None
        best_sum = None
        for a, b in zip(ordered, ordered[1:]):
            pair_sum = a.tree.object_count + b.tree.object_count
            if best_sum is None or pair_sum < best_sum:
                best, best_sum = (a.shard_id, b.shard_id), pair_sum
        if best is not None and best_sum is not None and best_sum <= avg:
            return None, best
        return None, None

    def _shard_by_id(self, shard_id: int) -> Shard:
        for shard in self.shards:
            if shard.shard_id == shard_id:
                return shard
        raise ValueError(f"no shard {shard_id} in cluster")

    def _split(self, shard_id: int, faults: Optional[FaultInjector]) -> dict:
        shard = self._shard_by_id(shard_id)
        items = list(shard.tree.keyed_objects())
        if len(items) < 2:
            raise ValueError(f"shard {shard_id} is too small to split")
        keys = [key for key, _ in items]
        mid = keys[len(keys) // 2]
        if mid <= keys[0]:
            later = next((k for k in keys if k > keys[0]), None)
            if later is None:
                raise ValueError(
                    f"cannot split shard {shard_id}: every object shares "
                    "one SFC key"
                )
            mid = later
        left_items = [(k, o) for k, o in items if k < mid]
        right_items = [(k, o) for k, o in items if k >= mid]
        left = Shard(
            self.next_shard_id,
            shard.key_lo,
            mid,
            self._tree_from_items(left_items, stats_from=shard.tree),
        )
        right = Shard(
            self.next_shard_id + 1,
            mid,
            shard.key_hi,
            self._tree_from_items(right_items, stats_from=shard.tree),
        )
        self.next_shard_id += 2
        self._commit_swap([shard], [left, right], faults)
        if _obsreg.ENABLED:
            _instruments.cluster().rebalances.labels(op="split").inc()
        return {
            "action": "split",
            "source": shard.shard_id,
            "at": mid,
            "new": [left.shard_id, right.shard_id],
            "counts": [left.tree.object_count, right.tree.object_count],
        }

    def _merge(
        self, pair: tuple[int, int], faults: Optional[FaultInjector]
    ) -> dict:
        a = self._shard_by_id(pair[0])
        b = self._shard_by_id(pair[1])
        if a.key_lo > b.key_lo:
            a, b = b, a
        if a.key_hi != b.key_lo:
            raise ValueError(
                f"shards {pair[0]} and {pair[1]} are not range-adjacent"
            )
        items = list(a.tree.keyed_objects()) + list(b.tree.keyed_objects())
        donor = a.tree if a.tree.object_count >= b.tree.object_count else b.tree
        merged = Shard(
            self.next_shard_id,
            a.key_lo,
            b.key_hi,
            self._tree_from_items(items, stats_from=donor),
        )
        self.next_shard_id += 1
        self._commit_swap([a, b], [merged], faults)
        if _obsreg.ENABLED:
            _instruments.cluster().rebalances.labels(op="merge").inc()
        return {
            "action": "merge",
            "sources": [a.shard_id, b.shard_id],
            "new": merged.shard_id,
            "count": merged.tree.object_count,
        }

    def _commit_swap(
        self,
        old: list[Shard],
        new: list[Shard],
        faults: Optional[FaultInjector],
    ) -> None:
        """Replace ``old`` shards with ``new`` ones; the cluster catalog
        rename is the only commit point (caller holds the write lock)."""
        if self.directory is not None:
            for shard in new:
                if shard.tree.raf is None:
                    continue
                gen = save_tree(
                    shard.tree,
                    os.path.join(self.directory, shard.dirname),
                    faults,
                )
                shard.tree._generation = gen
        retired = {s.shard_id for s in old}
        shards = [s for s in self.shards if s.shard_id not in retired]
        shards.extend(new)
        shards.sort(key=lambda s: s.key_lo)
        if self.directory is not None:
            save_catalog(
                self.directory,
                self._catalog_for(shards),
                faults,
            )
        # Committed (or memory-only): adopt the new shard map.  Retired
        # shards take their replica rows with them (a rebalanced shard is
        # re-replicated explicitly; its old replica dirs are swept as
        # unreferenced on the next load).
        self.shards = shards
        for sid in retired:
            self._replica_meta.pop(sid, None)
        self.router.reset(self.shards)
        for shard in old:
            if shard.tree.wal is not None:
                shard.tree.wal.close()
                shard.tree.wal = None
        if self._logging:
            for shard in new:
                self._attach_wal(shard)
        if self.directory is not None:
            for shard in old:
                path = os.path.join(self.directory, shard.dirname)
                if faults is not None:
                    faults.checkpoint(f"remove {shard.dirname}")
                shutil.rmtree(path, ignore_errors=True)
        self._gauge_all()
        if _obsreg.ENABLED:
            for shard in old:
                _instruments.cluster().shard_objects.labels(
                    shard=str(shard.shard_id)
                ).set(0)

    def _catalog_for(self, shards: list[Shard]) -> ClusterCatalog:
        current = self.shards
        try:
            self.shards = shards
            return self._catalog()
        finally:
            self.shards = current

    def rebuild_with_pivots(
        self,
        pivots: Sequence[Any],
        faults: Optional[FaultInjector] = None,
    ) -> dict:
        """Re-map the whole cluster onto a new pivot set, in place.

        ``repro.tuning`` calls this when HFI objective drift shows the
        pivot table has gone stale under mutations.  The pivot space and
        SFC curve are swapped, every live object is re-mapped (one
        |O| × |P| pass, like :meth:`build`), and the shard list is cut at
        fresh population quantiles — then committed through the same
        single-catalog-rename protocol as :meth:`rebalance`, so a crash
        anywhere leaves either the old or the new cluster, never a
        hybrid.  Shard count is preserved; shard ids are fresh.
        """
        if not pivots:
            raise ValueError("need at least one pivot")
        with self._lock.write():
            old_shards = list(self.shards)
            objects = [
                obj
                for shard in sorted(old_shards, key=lambda s: s.key_lo)
                for obj in shard.tree.objects()
            ]
            if not objects:
                raise ValueError("cannot re-pivot an empty cluster")
            self.space = PivotSpace(
                list(pivots),
                self.distance,
                self.space.d_plus,
                self.space.delta,
            )
            self.curve = _CURVES[self._curve_name](
                self.space.num_pivots, self.space.bits
            )
            # Fresh donor build inside: ND_k corrections and the grid sample
            # are pivot-dependent, so the old shards' statistics do not carry.
            new_shards = self._cut_shards(objects, max(1, len(old_shards)))
            # The router prunes against the *new* pivot space; rebuild it
            # before the swap installs the new shard list.
            self.router = Router(self.space, self.curve)
            self._commit_swap(old_shards, new_shards, faults)
            if _obsreg.ENABLED:
                _instruments.cluster().rebalances.labels(op="re-pivot").inc()
            return {
                "action": "re-pivot",
                "pivots": len(self.space.pivots),
                "new": [s.shard_id for s in new_shards],
                "objects": len(objects),
            }

    # ------------------------------------------------------------ auditing

    def verify(self, check_objects: bool = True) -> ClusterVerifyReport:
        """Cluster-wide audit: every per-shard invariant (delegated to
        :meth:`SPBTree.verify`), plus the cluster's own — ranges disjoint
        and covering ``[0, curve.max_value)``, and every live object's SFC
        key inside its shard's range."""
        report = ClusterVerifyReport()
        with self._lock.read():
            ordered = sorted(self.shards, key=lambda s: s.key_lo)
            if not ordered:
                report.errors.append("cluster has no shards")
                return report
            if ordered[0].key_lo != 0:
                report.errors.append(
                    f"key space not covered: first shard starts at "
                    f"{ordered[0].key_lo}, not 0"
                )
            if ordered[-1].key_hi != self.curve.max_value:
                report.errors.append(
                    f"key space not covered: last shard ends at "
                    f"{ordered[-1].key_hi}, not {self.curve.max_value}"
                )
            for prev, cur in zip(ordered, ordered[1:]):
                if prev.key_hi != cur.key_lo:
                    report.errors.append(
                        f"ranges not contiguous: shard {prev.shard_id} ends "
                        f"at {prev.key_hi}, shard {cur.shard_id} starts at "
                        f"{cur.key_lo}"
                    )
            ids = [s.shard_id for s in ordered]
            if len(set(ids)) != len(ids):
                report.errors.append("duplicate shard ids")
            for shard in ordered:
                report.shards_checked += 1
                tree = shard.tree
                if tree.raf is None:
                    continue
                sub = tree.verify(check_objects=check_objects)
                report.shard_reports[shard.shard_id] = sub
                report.objects_checked += tree.object_count
                for err in sub.errors:
                    report.errors.append(f"shard {shard.shard_id}: {err}")
                for warn in sub.warnings:
                    report.warnings.append(f"shard {shard.shard_id}: {warn}")
                self._check_keys_in_range(shard, report)
        return report

    def _check_keys_in_range(
        self, shard: Shard, report: ClusterVerifyReport
    ) -> None:
        """Every live leaf key must fall inside the shard's half-open
        range.  Counter state is restored — verification is an audit, not
        a workload."""
        tree = shard.tree
        b_counter = tree.btree.pagefile.counter
        r_counter = tree.raf.pagefile.counter if tree.raf is not None else None
        saved = (
            b_counter.reads,
            b_counter.writes,
            (r_counter.reads, r_counter.writes) if r_counter else None,
        )
        try:
            for entry in tree.btree.leaf_entries():
                if tree.raf is not None and tree.raf.is_deleted(entry.ptr):
                    continue
                if not (shard.key_lo <= entry.key < shard.key_hi):
                    report.errors.append(
                        f"shard {shard.shard_id}: key {entry.key} outside "
                        f"range [{shard.key_lo}, {shard.key_hi})"
                    )
        finally:
            b_counter.reads, b_counter.writes = saved[0], saved[1]
            if r_counter is not None and saved[2] is not None:
                r_counter.reads, r_counter.writes = saved[2]

    # ----------------------------------------------------------- inventory

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def object_count(self) -> int:
        return sum(s.tree.object_count for s in self.shards)

    def __len__(self) -> int:
        return self.object_count

    def objects(self) -> Iterator[Any]:
        """All live objects, in global ascending SFC order."""
        for shard in sorted(self.shards, key=lambda s: s.key_lo):
            yield from shard.tree.objects()

    @property
    def page_accesses(self) -> int:
        return sum(s.tree.page_accesses for s in self.shards)

    @property
    def distance_computations(self) -> int:
        return self.distance.count + sum(
            s.tree.distance_computations for s in self.shards
        )

    @property
    def size_in_bytes(self) -> int:
        return sum(s.tree.size_in_bytes for s in self.shards)

    def reset_counters(self) -> None:
        self.distance.reset()
        for shard in self.shards:
            shard.tree.reset_counters()

    def flush_cache(self, reset_stats: bool = False) -> None:
        for shard in self.shards:
            shard.tree.flush_cache(reset_stats=reset_stats)
