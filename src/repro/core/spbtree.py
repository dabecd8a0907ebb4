"""The SPB-tree: Space-filling curve and Pivot-based B+-tree (§3).

An SPB-tree has three parts (Fig. 4 of the paper):

* a **pivot table** — the selected pivot objects, defining the mapping
  φ(o) = <d(o, p₁), …, d(o, pₙ)> into the pivot space;
* a **B+-tree** indexing the SFC values of the mapped objects, whose
  non-leaf entries carry subtree MBBs encoded as SFC corner keys;
* an **RAF** storing the actual objects in ascending SFC order.

Query processing implements the paper's algorithms verbatim, one
traversal per algorithm:

* :meth:`SPBTree.range_query` and :meth:`SPBTree.range_count` — Algorithm 1
  (RQA) with Lemma 1 (mapped range region pruning), Lemma 2
  (distance-free inclusion), and the ``computeSFC`` fast path that
  enumerates the SFC values of ``RR(q,r) ∩ MBB(N)`` when that region holds
  fewer cells than the leaf has entries.  The count is the same traversal
  with a counting sink, which takes Lemma 2 accepts without reading the
  RAF;
* :meth:`SPBTree.knn_query` / :meth:`SPBTree.knn_into` — Algorithm 2
  (NNA), best-first over MIND lower bounds (Lemma 3), optimal in distance
  computations (Lemma 4), with both the *incremental* and the *greedy*
  traversal paradigms of §4.3.

Every query runs through :meth:`SPBTree._run`; a call without a
:class:`QueryContext` runs on a private unlimited one and returns the
unwrapped answer.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import os
import time
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.btree.node import LeafEntry, Node
from repro.btree.tree import BPlusTree
from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.obs.trace import NULL_TRACE
from repro.core.mapping import PivotSpace
from repro.core.pivots import select_pivots
from repro.distance.base import CountingDistance, Metric
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.region import (
    box_cell_count,
    box_contains,
    box_intersection,
    boxes_intersect,
    point_in_box,
    sfc_values_in_box,
)
from repro.service.context import (
    EpochLock,
    KnnCollector,
    QueryContext,
    QueryResult,
    _Exhausted,
    _Unlimited,
)
from repro.sfc.zorder import ZCurve
from repro.stats import credit_stat_shard
from repro.storage.pagefile import DEFAULT_PAGE_SIZE
from repro.storage.raf import RandomAccessFile
from repro.storage.serializers import Serializer, serializer_for
from repro.storage.wal import OP_INSERT, WalRecord, WriteAheadLog

_CURVES: dict[str, type[SpaceFillingCurve]] = {
    "hilbert": HilbertCurve,
    "z": ZCurve,
    "zorder": ZCurve,
    # the names the curve classes report about themselves, so a persisted
    # catalog's ``curve`` field round-trips through the constructor
    "z-curve": ZCurve,
}

#: Reservoir size for the cost-model sample of mapped vectors (eq. 2).
_SAMPLE_CAPACITY = 2000


class _RangeSink:
    """Where RQA puts what it accepts: the objects and their number (a
    range query, ``fetch=True``) or only their number (a count, whose
    Lemma 2 accepts never read the RAF)."""

    __slots__ = ("hits", "count")

    def __init__(self, fetch: bool) -> None:
        self.hits: Optional[list[Any]] = [] if fetch else None
        self.count = 0


class SPBTree:
    """A disk-based metric index for similarity search and joins."""

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
        self.distance = CountingDistance(metric)
        self.space = PivotSpace(pivots, self.distance, d_plus, delta)
        try:
            curve_cls = _CURVES[curve]
        except KeyError:
            raise ValueError(
                f"unknown curve {curve!r}; available: {sorted(_CURVES)}"
            ) from None
        self.curve = curve_cls(self.space.num_pivots, self.space.bits)
        self.btree = BPlusTree(self.curve, page_size=page_size, checksums=checksums)
        self._serializer = serializer
        self._page_size = page_size
        self._cache_pages = cache_pages
        self._checksums = checksums
        self.raf: Optional[RandomAccessFile] = None
        self.object_count = 0
        self._next_id = 0
        #: Write-ahead log for incremental durability (begin_logging attaches).
        self.wal: Optional[WriteAheadLog] = None
        #: Single-writer / multi-reader lock with snapshot-epoch pinning.
        self._epoch_lock = EpochLock()
        #: The on-disk generation this in-memory state extends (0 = unsaved).
        self._generation = 0
        #: Reservoir sample of mapped grid points, for the cost models.
        self.grid_sample: list[tuple[int, ...]] = []
        #: Sorted sample of actual pairwise distances (kNN cost model).
        self.pair_distances: list[float] = []
        #: Power-law exponent 2ρ of F(r) near 0, for tail extrapolation.
        self.distance_exponent = 2.0
        #: precision(P) of Definition 1, sampled at build time.
        self.precision_hint = 1.0
        #: Per-k correction factors for the ND_k estimator (see _calibrate).
        self.ndk_corrections: dict[int, float] = {}
        self._sampled_from = 0
        self._sample_rng_state = 12345
        #: Ablation switches (§4.2): Lemma 2's distance-free inclusion and
        #: Algorithm 1's computeSFC fast path.  On by default; the ablation
        #: experiment turns them off to measure their contribution.
        self.use_lemma2 = True
        self.use_sfc_enumeration = True

    # --------------------------------------------------------- construction

    @classmethod
    def build(
        cls,
        objects: Sequence[Any],
        metric: Metric,
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
    ) -> "SPBTree":
        """Bulk-load an SPB-tree over ``objects`` (Appendix B).

        Pivot selection and the d+ estimate run on the *raw* metric, since
        the paper's construction cost (Table 6) counts only the |O| × |P|
        mapping distances; pass ``pivots``/``d_plus`` explicitly to reuse a
        pivot table across indexes (required for similarity joins).
        """
        if not objects:
            raise ValueError("cannot build an index over an empty dataset")
        if pivots is None:
            pivots = select_pivots(
                objects, num_pivots, metric, method=pivot_method, seed=seed
            )
        if d_plus is None:
            d_plus = metric.max_distance(objects)
        tree = cls(
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
        tree._bulk_load(objects)
        return tree

    @classmethod
    def build_keyed(
        cls,
        items: Sequence[tuple[int, Any]],
        metric: Metric,
        pivots: Sequence[Any],
        d_plus: float,
        curve: str = "hilbert",
        delta: Optional[float] = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        cache_pages: int = 32,
        serializer: Optional[Serializer] = None,
        checksums: bool = False,
        stats_from: Optional["SPBTree"] = None,
    ) -> "SPBTree":
        """Bulk-load from precomputed ``(SFC key, object)`` pairs.

        The keys already encode the mapped grid cells, so this costs zero
        distance computations — the path cluster rebalancing takes to
        split or merge shards without re-mapping a single object.  The
        caller guarantees the keys were produced by an identical pivot
        space (same pivots, d+, delta, curve).  ``stats_from`` donates
        the cost-model statistics that cannot be re-derived without
        distances (pair-distance sample, exponent, ND_k corrections).
        """
        tree = cls(
            metric,
            pivots,
            d_plus,
            curve=curve,
            delta=delta,
            page_size=page_size,
            cache_pages=cache_pages,
            serializer=serializer,
            checksums=checksums,
        )
        if stats_from is not None:
            tree.pair_distances = list(stats_from.pair_distances)
            tree.distance_exponent = stats_from.distance_exponent
            tree.precision_hint = stats_from.precision_hint
            tree.ndk_corrections = dict(stats_from.ndk_corrections)
        if items:
            ordered = sorted(items, key=lambda pair: pair[0])
            for key, _ in ordered:
                tree._observe(tuple(tree.curve.decode(key)))
            tree._load_sorted(ordered)
        return tree

    def _ensure_raf(self, example: Any) -> RandomAccessFile:
        if self.raf is None:
            serializer = self._serializer or serializer_for(example)
            self.raf = RandomAccessFile(
                serializer,
                page_size=self._page_size,
                cache_pages=self._cache_pages,
                checksums=self._checksums,
            )
        return self.raf

    def _bulk_load(self, objects: Sequence[Any]) -> None:
        keyed = []
        phis = []
        for obj in objects:
            phi = self.space.phi(obj)  # |P| distance computations
            grid = self.space.grid_from_phi(phi)
            keyed.append((self.curve.encode(grid), obj))
            phis.append(phi)
            self._observe(grid)
        self._calibrate(objects, phis)
        keyed.sort(key=lambda pair: pair[0])
        self._load_sorted(keyed)

    def _load_sorted(self, keyed: Sequence[tuple[int, Any]]) -> None:
        """Append key-sorted ``(SFC key, object)`` pairs to a fresh RAF and
        bulk-load the B+-tree over them."""
        raf = self._ensure_raf(keyed[0][1])
        items = []
        for key, obj in keyed:
            items.append((key, raf.append(self._next_id, obj, flush=False)))
            self._next_id += 1
        raf.finalize()
        self.btree.bulk_load(items)
        self.object_count = len(keyed)

    def _calibrate(self, objects: Sequence[Any], phis: list, pairs: int = 1500) -> None:
        """Sample the dataset's pairwise distance distribution F(r).

        The kNN cost model needs the query distance distribution F_q of
        eq. 5; following the query-insensitive approximation of Ciaccia &
        Nanni, F_q ≈ F, so we record a sorted sample of actual pairwise
        distances plus the distance exponent 2ρ (ρ = μ²/2σ², the intrinsic
        dimensionality of §3.2) for tail extrapolation below the sample's
        resolution.  Like the union distance distribution of eq. 2, this is
        "statistically obtained during SPB-tree construction"; it uses the
        raw metric so construction compdists stay at the paper's |O| × |P|.
        """
        n = len(objects)
        self.pair_distances: list[float] = []
        self.distance_exponent = 2.0
        self.precision_hint = 1.0
        if n < 2:
            return
        metric = self.distance.metric
        state = 0x9E3779B97F4A7C15
        sampled: list[float] = []
        ratios: list[float] = []
        for _ in range(pairs):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            i = state % n
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            j = state % n
            if i == j:
                continue
            d = metric(objects[i], objects[j])
            sampled.append(d)
            if d > 0:
                lb = max(abs(a - b) for a, b in zip(phis[i], phis[j]))
                ratios.append(lb / d)
        sampled.sort()
        self.pair_distances = sampled
        if sampled:
            mean = sum(sampled) / len(sampled)
            var = sum((d - mean) ** 2 for d in sampled) / len(sampled)
            if var > 0:
                # 2ρ: the power-law exponent of F(r) for small r.
                self.distance_exponent = max(0.5, mean * mean / var)
        if ratios:
            # precision(P) of Definition 1, reused by the kNN cost model to
            # scale mapped lower bounds up to distance estimates.
            self.precision_hint = max(0.05, sum(ratios) / len(ratios))
        self._self_validate(objects, phis)

    def _self_validate(
        self,
        objects: Sequence[Any],
        phis: list,
        pseudo_queries: int = 10,
        subsample: int = 300,
    ) -> None:
        """Calibrate the kNN cost model's ND_k estimator against reality.

        The mapped lower-bound quantile tracks the true k-th NN distance
        proportionally but with a dataset-specific bias (it is a lower
        bound, and order statistics push it further down).  We measure that
        bias once, at construction: for a few pseudo-queries drawn from the
        data, compare the lower-bound quantile against the empirical ND_k
        on a subsample, and store the median correction per k.  Uses the
        raw metric, so reported construction compdists stay |O| × |P|.
        """
        self.ndk_corrections: dict[int, float] = {}
        n = len(objects)
        if n < 20:
            return
        metric = self.distance.metric
        space = self.space
        shift = 0.0 if space.exact else 0.5
        state = 0xDEADBEEF12345678

        def next_index() -> int:
            nonlocal state
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            return state % n

        pq_idx = [next_index() for _ in range(pseudo_queries)]
        sub_idx = [next_index() for _ in range(min(subsample, n))]
        sub_objects = [objects[i] for i in sub_idx]
        sample = self.grid_sample

        def interpolated(values: list, position: float) -> float:
            position = min(len(values) - 1, max(0.0, position))
            i = int(position)
            frac = position - i
            upper = values[min(i + 1, len(values) - 1)]
            return values[i] * (1 - frac) + upper * frac

        for k in (1, 2, 4, 8, 16, 32, 64):
            ratios_k = []
            for qi in pq_idx:
                phi_q = phis[qi]
                lbs = sorted(
                    max(
                        abs((c + shift) * space.delta - dq)
                        for c, dq in zip(g, phi_q)
                    )
                    for g in sample
                )
                lbq = interpolated(lbs, k * len(lbs) / n)
                if lbq <= 0:
                    continue
                dists = sorted(metric(objects[qi], o) for o in sub_objects)
                true_ndk = interpolated(dists, k * len(dists) / n)
                if true_ndk > 0:
                    ratios_k.append(true_ndk / lbq)
            if ratios_k:
                ratios_k.sort()
                self.ndk_corrections[k] = ratios_k[len(ratios_k) // 2]

    def _observe(self, grid: tuple[int, ...]) -> None:
        """Reservoir-sample mapped grid points for the cost models."""
        self._sampled_from += 1
        if len(self.grid_sample) < _SAMPLE_CAPACITY:
            self.grid_sample.append(grid)
            return
        # Deterministic linear-congruential step keeps builds reproducible.
        self._sample_rng_state = (
            self._sample_rng_state * 6364136223846793005 + 1442695040888963407
        ) % (1 << 64)
        slot = self._sample_rng_state % self._sampled_from
        if slot < _SAMPLE_CAPACITY:
            self.grid_sample[slot] = grid

    # --------------------------------------------------------------- update

    def insert(self, obj: Any, grid: Optional[tuple[int, ...]] = None) -> None:
        """Insert one object (Appendix C): |P| distance computations plus a
        B+-tree descent and one RAF page write.

        With a WAL attached (:meth:`begin_logging`) the record is made
        durable in the log *before* any in-memory structure changes, and
        the RAF append skips the per-insert partial-page flush (the log
        already guarantees durability).  Mutations serialize through the
        writer side of the epoch lock, so in-flight queries never observe
        a half-applied insert.  A caller that already mapped the object
        (cluster routing) passes ``grid`` to skip the |P| computations.
        """
        if grid is None:
            grid = self.space.grid(obj)
        key = self.curve.encode(grid)
        with self._epoch_lock.write():
            raf = self._ensure_raf(obj)
            obj_id = self._next_id
            if self.wal is not None:
                self.wal.append_insert(obj_id, key, raf.serializer.serialize(obj))
            self._apply_insert(obj, obj_id, key, grid, flush=self.wal is None)

    def delete(self, obj: Any, grid: Optional[tuple[int, ...]] = None) -> bool:
        """Delete one object; True if it was present.

        Duplicate-SFC-key objects are distinguished by a byte-level compare
        of their serialized forms, so exactly the matching object goes.
        With a WAL attached, the delete record commits to the log before
        the B+-tree entry and tombstone change.
        """
        if self.raf is None:
            return False
        if grid is None:
            grid = self.space.grid(obj)
        key = self.curve.encode(grid)
        target = self.raf.serializer.serialize(obj)
        with self._epoch_lock.write():
            entry = self._find_live_entry(key, target)
            if entry is None:
                return False
            if self.wal is not None:
                self.wal.append_delete(key, target)
            self.btree.delete(key, entry.ptr)
            self.raf.mark_deleted(entry.ptr)
            self.object_count -= 1
            self._unobserve(grid)
            return True

    def _find_live_entry(self, key: int, target: bytes):
        """The first live leaf entry at ``key`` whose record byte-matches
        ``target`` — the shared lookup rule of delete and WAL replay."""
        assert self.raf is not None
        for entry in self.btree.find_entries(key):
            if self.raf.is_deleted(entry.ptr):
                continue
            _, stored = self.raf.read(entry.ptr)
            if self.raf.serializer.serialize(stored) == target:
                return entry
        return None

    def _apply_insert(
        self, obj: Any, obj_id: int, key: int, grid: tuple[int, ...], flush: bool
    ) -> None:
        """The in-memory half of an insert (live path and WAL replay)."""
        raf = self._ensure_raf(obj)
        offset = raf.append(obj_id, obj, flush=flush)
        if obj_id >= self._next_id:
            self._next_id = obj_id + 1
        self.btree.insert(key, offset)
        self.object_count += 1
        self._observe(grid)

    def _apply_wal_record(self, record: WalRecord) -> None:
        """Re-apply one logged mutation during recovery.

        Replay is deterministic and costs zero distance computations: the
        grid cell comes back from the recorded SFC key, the object from the
        recorded bytes, and the id from the recorded id, so a replayed tree
        is byte-for-byte the tree that logged the records.
        """
        grid = tuple(self.curve.decode(record.key))
        if record.op == OP_INSERT:
            serializer = (
                self.raf.serializer if self.raf is not None else self._serializer
            )
            assert serializer is not None
            obj = serializer.deserialize(record.payload)
            self._apply_insert(obj, record.obj_id, record.key, grid, flush=False)
            return
        assert self.raf is not None
        entry = self._find_live_entry(record.key, record.payload)
        if entry is not None:
            self.btree.delete(record.key, entry.ptr)
            self.raf.mark_deleted(entry.ptr)
            self.object_count -= 1
            self._unobserve(grid)

    # ----------------------------------------------------- WAL & checkpoint

    def begin_logging(self, wal: WriteAheadLog) -> None:
        """Attach a write-ahead log; subsequent mutations commit to it first.

        A fresh log gets a header binding it to this tree's generation.  A
        log whose header predates the loaded generation is *stale* — its
        records were folded in by a checkpoint that crashed before
        truncating — and is reset rather than double-applied.  A log from a
        *future* generation means the caller mixed up directories; refuse.
        """
        if wal.header is None:
            wal.start(self._generation, self.object_count, self._next_id)
        elif wal.header.base_generation < self._generation:
            wal.truncate(self._generation, self.object_count, self._next_id)
        elif wal.header.base_generation > self._generation:
            raise ValueError(
                f"WAL base generation {wal.header.base_generation} is newer "
                f"than the tree's generation {self._generation}; wrong "
                f"directory or rolled-back catalog"
            )
        self.wal = wal

    def checkpoint(
        self, directory: Optional[str] = None, faults: Optional[Any] = None
    ) -> int:
        """Fold the WAL into a new on-disk generation and truncate the log.

        Runs under the writer lock: saves the whole tree through the atomic
        ``save_tree`` commit point (the catalog rename), then rebinds the
        log to the committed generation.  A crash before the rename leaves
        the old generation + full log; a crash after it leaves the new
        generation + a stale log that load ignores — both replay to exactly
        this tree.  Returns the committed generation number.
        """
        from repro.core.persist import save_tree

        if self.wal is None:
            raise ValueError("no WAL attached; call begin_logging() first")
        if directory is None:
            directory = os.path.dirname(self.wal.path) or "."
        t0 = time.perf_counter() if _obsreg.ENABLED else 0.0
        with self._epoch_lock.write():
            generation = save_tree(self, directory, faults=faults)
            self._generation = generation
            self.wal.truncate(generation, self.object_count, self._next_id)
        if _obsreg.ENABLED:
            _instruments.wal().checkpoint_seconds.observe(
                time.perf_counter() - t0
            )
        return generation

    def _unobserve(self, grid: tuple[int, ...]) -> None:
        """Compensate the cost-model reservoir for one deletion.

        Removes one matching grid point from the sample (if present) and
        shrinks the population counter, so the sample keeps estimating the
        *live* distribution.  This is an approximation: when the deleted
        object was never sampled, the decrement slightly raises the
        inclusion probability of future inserts; the drift is bounded and
        tested (cost estimates, not correctness, depend on the sample).
        """
        if self._sampled_from > 0:
            self._sampled_from -= 1
        try:
            self.grid_sample.remove(grid)
        except ValueError:
            pass

    # -------------------------------------------------------------- queries

    def _run(
        self,
        context: Optional[QueryContext],
        query: Any,
        phi_q: Optional[tuple[float, ...]],
        search: Callable[[QueryContext, Any, tuple[float, ...]], None],
    ) -> QueryResult:
        """Run one traversal under the protocol every query method shares.

        Activates the context, pins an epoch under the read lock, skips an
        empty tree, maps the query to φ(q) on the ``map`` span (unless the
        caller passed ``phi_q``), calls ``search(ctx, trace, phi_q)`` — the
        trace is :data:`NULL_TRACE` when none is attached — turns
        exhaustion into a partial result (or, in strict mode, the
        exception), finishes the trace, and returns a :class:`QueryResult`
        holding completeness and stats; the caller fills in the answer
        from its sink.  Without a ``context`` the search runs on a private
        unlimited one whose costs are folded into the stat shard that was
        active before the call, so an enclosing context is credited
        exactly as if no context had been pushed.
        """
        ctx = context or _Unlimited()
        tr = ctx.trace or NULL_TRACE
        t0 = time.perf_counter()
        complete, reason = True, None
        try:
            with ctx.activate():
                try:
                    with self._epoch_lock.read() as epoch:
                        ctx.epoch = epoch
                        if self.raf is not None and self.object_count:
                            if phi_q is None:
                                with tr.region(tr.span("map"), ctx):
                                    phi_q = self.space.phi(query)  # |P| compdists
                            search(ctx, tr, phi_q)
                except _Exhausted as exc:
                    if ctx.strict:
                        raise ctx.raise_for(exc.reason) from None
                    complete, reason = False, exc.reason
                tr.finish(ctx, complete, reason)
        finally:
            if ctx is not context:  # private: credit the enclosing shard
                credit_stat_shard(ctx)
        elapsed = time.perf_counter() - t0
        return QueryResult([], complete, reason, stats=ctx.stats(elapsed))

    # ---------------------------------------------------------- range query

    def range_query(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext] = None,
        phi_q: Optional[tuple[float, ...]] = None,
    ) -> "list[Any] | QueryResult":
        """RQ(q, O, r): all objects within ``radius`` of ``query``.

        Algorithm 1 (RQA) of the paper.  Without a ``context`` this returns
        a plain list.  With a :class:`QueryContext` the traversal observes
        its deadline/budget/cancellation at every node and entry, and the
        answer comes back as a :class:`QueryResult`: on exhaustion the hits
        verified so far, flagged ``complete=False`` (or, in strict mode,
        :class:`~repro.service.BudgetExceeded`).  ``phi_q`` passes a
        precomputed pivot mapping of the query so a cluster scatter pays
        the |P| mapping distances once, not per shard.
        """
        out = self._range(query, radius, context, phi_q, fetch=True)
        return out if context is not None else out.items

    def range_count(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext] = None,
        phi_q: Optional[tuple[float, ...]] = None,
    ) -> "int | QueryResult":
        """|RQ(q, O, r)| without fetching the objects.

        Algorithm 1 (RQA) with a counting sink: entries whose grid cell
        proves d(q, o) ≤ r by Lemma 2 are *counted* without touching the
        RAF at all, so a pure counting workload (selectivity estimation,
        faceting) costs a fraction of the page accesses of
        :meth:`range_query`.

        With a :class:`QueryContext` the answer is a :class:`QueryResult`
        whose ``count`` holds the tally (a lower bound of the true count
        when ``complete=False``).
        """
        out = self._range(query, radius, context, phi_q, fetch=False)
        return out if context is not None else out.count

    def _range(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext],
        phi_q: Optional[tuple[float, ...]],
        fetch: bool,
    ) -> QueryResult:
        if radius < 0:
            raise ValueError("radius must be non-negative")
        sink = _RangeSink(fetch)
        search = functools.partial(self._range_search, query, radius, sink)
        out = self._run(context, query, phi_q, search)
        out.count = out.stats.result_size = sink.count
        if sink.hits is not None:
            out.items = sink.hits
        return out

    def _range_search(
        self,
        query: Any,
        radius: float,
        sink: "_RangeSink",
        ctx: QueryContext,
        tr: Any,
        phi_q: tuple[float, ...],
    ) -> None:
        """Algorithm 1's descent: depth-first over (page, parent MBB,
        level), Lemma 1 pruning children whose MBB misses RR(q, r).  The
        root carries no parent entry, so its box is None and a leaf root
        derives one."""
        rr_lo, rr_hi = rr = self.space.range_region(phi_q, radius)
        stack: list[tuple] = [(self.btree.root_page, None, 0)]
        while stack:
            ctx.checkpoint()
            page_id, box, depth = stack.pop()
            # All costs of a node belong to the span of its level.
            with tr.region(tr.level(depth), ctx):
                node = self.btree.read_node(page_id)
                tr.bump("nodes_visited")
                if not node.is_leaf:
                    for entry in node.entries:
                        child_box = self.btree.decode_box(entry)
                        if boxes_intersect(rr_lo, rr_hi, *child_box):  # Lemma 1
                            stack.append((entry.child, child_box, depth + 1))
                        else:
                            tr.bump("children_pruned_lemma1")
                    continue
                if box is None:  # leaf root: derive the MBB a parent would hold
                    box = self.btree.node_box(node)
                    if box is None or not boxes_intersect(rr_lo, rr_hi, *box):
                        continue
                self._range_leaf(node, box, query, radius, phi_q, rr, sink, ctx, tr)

    def _range_leaf(
        self,
        node: Node,
        box: tuple,
        query: Any,
        radius: float,
        phi_q: tuple[float, ...],
        rr: tuple,
        sink: "_RangeSink",
        ctx: QueryContext,
        tr: Any,
    ) -> None:
        """Leaf handling of Algorithm 1, lines 11–23."""
        rr_lo, rr_hi = rr
        entries, check_rr = node.entries, True
        if box_contains(rr_lo, rr_hi, *box):
            check_rr = False  # MBB(N) ⊆ RR: every entry is inside RR
        else:
            inter = box_intersection(rr_lo, rr_hi, *box)
            if inter is None:
                return
            if self.use_sfc_enumeration and box_cell_count(*inter) < node.count:
                # computeSFC fast path: enumerate the (few) SFC values in
                # RR ∩ MBB(N) and keep only the entries carrying one.
                tr.bump("sfc_fast_path")
                values = set(sfc_values_in_box(self.curve, *inter))
                entries = [entry for entry in entries if entry.key in values]
                check_rr = False
        for entry in entries:
            self._verify_range(
                entry, query, radius, phi_q, rr, check_rr, sink, ctx, tr
            )

    def _verify_range(
        self,
        entry: LeafEntry,
        query: Any,
        radius: float,
        phi_q: tuple[float, ...],
        rr: tuple,
        check_rr: bool,
        sink: "_RangeSink",
        ctx: QueryContext,
        tr: Any,
    ) -> None:
        """VerifyRQ of Algorithm 1 (lines 25–29)."""
        assert self.raf is not None
        ctx.checkpoint()
        cell = self.curve.decode(entry.key)
        if check_rr and not point_in_box(cell, *rr):  # Lemma 1
            tr.bump("entries_pruned_lemma1")
            return
        if self.raf.is_deleted(entry.ptr):
            return
        # Lemma 2: if some pivot places o within r - d(q, pᵢ) of pᵢ, the
        # object is certainly a result: accept it without computing d(q, o)
        # (and, for a count, without reading it).
        if self.use_lemma2:
            for coord, dq in zip(cell, phi_q):
                if self.space.upper_bound_to_pivot(coord) <= radius - dq:
                    tr.bump("lemma2_accepts")
                    sink.count += 1
                    if sink.hits is not None:
                        sink.hits.append(self.raf.read_object(entry.ptr))
                    return
        tr.bump("entries_verified")
        obj = self.raf.read_object(entry.ptr)
        if self.distance(query, obj) <= radius:
            sink.count += 1
            if sink.hits is not None:
                sink.hits.append(obj)

    # ------------------------------------------------------------ kNN query

    def knn_query(
        self,
        query: Any,
        k: int,
        traversal: str = "incremental",
        context: Optional[QueryContext] = None,
        phi_q: Optional[tuple[float, ...]] = None,
    ) -> "list[tuple[float, Any]] | QueryResult":
        """kNN(q, k): ``k`` nearest objects, as (distance, object) pairs
        ascending by distance.

        Algorithm 2 (NNA).  ``traversal`` selects the §4.3 strategy:
        ``"incremental"`` pushes individual leaf entries back onto the heap
        (optimal in distance computations, Lemma 4); ``"greedy"`` verifies
        an entire leaf as soon as it is reached (optimal in RAF page
        accesses — the default choice for low-precision data like DNA).

        Without a ``context`` this returns a plain list.  With a
        :class:`QueryContext`, exhaustion degrades gracefully: the
        returned :class:`QueryResult` (``complete=False``) holds only the
        *confirmed* best-so-far neighbours — those whose distance does not
        exceed the smallest lower bound still on the heap, so by Lemma 3
        their distances are a prefix of the true kNN distances.  Strict
        mode raises :class:`~repro.service.BudgetExceeded` instead.
        """
        collector = KnnCollector(k)
        out = self.knn_into(
            query, k, collector, context, traversal=traversal, phi_q=phi_q
        )
        items = collector.items()
        if not out.complete:
            # Keep only the confirmed prefix: every unvisited object is
            # at distance >= the smallest remaining lower bound, and
            # everything evicted from the result heap was >= its max, so
            # neighbours at or below the frontier are true kNN members.
            items = [(d, obj) for d, obj in items if d <= out.frontier]
        out.items = items
        out.count = out.stats.result_size = len(items)
        return out if context is not None else items

    def knn_into(
        self,
        query: Any,
        k: int,
        collector: KnnCollector,
        context: Optional[QueryContext] = None,
        traversal: str = "incremental",
        phi_q: Optional[tuple[float, ...]] = None,
    ) -> QueryResult:
        """Run Algorithm 2 folding candidates into an external ``collector``.

        The cluster scatter shares one :class:`KnnCollector` across every
        shard's search, so the k-th-distance bound tightens globally.  The
        returned :class:`QueryResult` carries no items — the collector
        holds the candidates — only this traversal's completeness, reason,
        ``frontier`` (the smallest unexplored lower bound; None when
        complete), and per-context stats.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if traversal not in ("incremental", "greedy"):
            raise ValueError("traversal must be 'incremental' or 'greedy'")
        heap: list[tuple[float, int, int, Any, int]] = []
        search = functools.partial(
            self._knn_search, query, traversal, collector, heap
        )
        out = self._run(context, query, phi_q, search)
        if not out.complete:
            out.frontier = heap[0][0] if heap else float("inf")
        return out

    def _knn_search(
        self,
        query: Any,
        traversal: str,
        collector: KnnCollector,
        heap: list[tuple[float, int, int, Any, int]],
        ctx: QueryContext,
        tr: Any,
        phi_q: tuple[float, ...],
    ) -> None:
        """Best-first NNA loop, offering verified objects to ``collector``
        and leaving unexplored lower bounds in ``heap`` when a context
        checkpoint aborts the search.

        Heap items are ``(mind, tiebreak, kind, payload, depth)``: kind 0
        is a leaf entry, kind 1 a page id.  The depth is the B+-tree level
        the payload came from, so traced costs land on the right per-level
        span.  The unique tiebreak guarantees comparisons never reach
        payload or depth.
        """
        counter = itertools.count()
        bound = collector.bound

        def verify(entry: LeafEntry) -> None:
            assert self.raf is not None
            ctx.checkpoint()
            if self.raf.is_deleted(entry.ptr):
                return
            tr.bump("entries_verified")
            obj = self.raf.read_object(entry.ptr)
            collector.offer(self.distance(query, obj), obj)

        def expand(page_id: int, depth: int) -> None:
            node = self.btree.read_node(page_id)
            tr.bump("nodes_visited")
            if not node.is_leaf:
                for entry in node.entries:
                    lo, hi = self.btree.decode_box(entry)
                    mind = self.space.mind_to_box(phi_q, lo, hi)
                    if mind < bound():  # Lemma 3
                        heapq.heappush(
                            heap, (mind, next(counter), 1, entry.child, depth + 1)
                        )
                    else:
                        tr.bump("children_pruned_lemma3")
            elif traversal == "greedy":
                # Greedy paradigm: evaluate the whole leaf immediately.
                for entry in node.entries:
                    verify(entry)
            else:
                for entry in node.entries:
                    cell = self.curve.decode(entry.key)
                    mind = self.space.mind_to_cell(phi_q, cell)
                    if mind < bound():  # Lemma 3
                        heapq.heappush(heap, (mind, next(counter), 0, entry, depth))
                    else:
                        tr.bump("entries_pruned_lemma3")

        try:
            ctx.checkpoint()
            with tr.region(tr.level(0), ctx):
                expand(self.btree.root_page, 0)
        except _Exhausted:
            # Entries of the root may be lost mid-push; a zero lower bound
            # keeps the confirmation frontier conservative.
            heapq.heappush(heap, (0.0, next(counter), 1, self.btree.root_page, 0))
            raise
        while heap:
            ctx.checkpoint()
            item = heapq.heappop(heap)
            mind, _, kind, payload, depth = item
            if mind >= bound():  # Lemma 3: early termination
                break
            try:
                with tr.region(tr.level(depth), ctx):
                    if kind == 0:  # an object (leaf entry)
                        verify(payload)
                    else:
                        expand(payload, depth)
            except _Exhausted:
                # The popped item was not fully processed: restore its lower
                # bound so the partial-result frontier stays sound.
                heapq.heappush(heap, item)
                raise

    # ----------------------------------------------------------- maintenance

    def rebuild(self) -> "SPBTree":
        """Compact the index: rebuild from the live objects.

        Deletions tombstone RAF records (Appendix C); after many of them
        the RAF carries dead space and the B+-tree dead structure.  This
        returns a fresh, fully-packed SPB-tree over the surviving objects,
        reusing the existing pivot table (no pivot re-selection cost).
        """
        if self.raf is None:
            raise ValueError("cannot rebuild an empty tree")
        live = [obj for _, _, obj in self.raf.scan()]
        fresh = SPBTree(
            self.distance.metric,
            self.space.pivots,
            self.space.d_plus,
            curve="hilbert" if not self.curve.is_monotone else "z",
            delta=self.space.delta,
            page_size=self._page_size,
            cache_pages=self._cache_pages,
            serializer=self.raf.serializer,
            checksums=self._checksums,
        )
        if live:
            fresh._bulk_load(live)
        return fresh

    # ---------------------------------------------------------- consistency

    def verify(self, check_objects: bool = True) -> "VerifyReport":
        """Audit the whole index for structural and storage consistency.

        Walks the B+-tree (page checksums, key ordering, parent/child key
        and MBB agreement, leaf chaining, entry counts), then cross-checks
        the RAF (page checksums, record framing, pointer consistency
        between leaf entries and stored objects, tombstone validity, object
        counts).  With ``check_objects=True`` every stored object is
        re-mapped through the pivot table to prove its SFC key matches its
        leaf entry — the invariant every pruning lemma depends on.

        Verification is observation-free: page-access and distance counters
        are restored afterwards.  Returns a :class:`VerifyReport`; nothing
        is raised for damage found (corruption becomes report errors).
        """
        from repro.core.verify import verify_tree

        return verify_tree(self, check_objects=check_objects)

    # ------------------------------------------------------------ accessors

    def __len__(self) -> int:
        return self.object_count

    def objects(self) -> Iterator[Any]:
        """All live objects, in ascending SFC order of their insertion batch."""
        if self.raf is None:
            return iter(())
        return (obj for _, _, obj in self.raf.scan())

    def keyed_objects(self) -> Iterator[tuple[int, Any]]:
        """All live ``(SFC key, object)`` pairs in ascending key order.

        Walks the B+-tree leaves, so the keys come back without a single
        distance computation — what cluster rebalancing feeds to
        :meth:`build_keyed` when splitting or merging shards.
        """
        if self.raf is None:
            return
        for entry in self.btree.leaf_entries():
            if self.raf.is_deleted(entry.ptr):
                continue
            yield entry.key, self.raf.read_object(entry.ptr)

    def mbb(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The pivot-space minimum bounding box of the whole tree, as
        inclusive grid-corner tuples ``(lo, hi)`` — what a cluster Router
        prunes whole shards with.  None for an empty tree."""
        with self._epoch_lock.read():
            if self.raf is None or self.object_count == 0:
                return None
            root = self.btree.read_node(self.btree.root_page)
            return self.btree.node_box(root)

    @property
    def page_accesses(self) -> int:
        raf_pa = self.raf.page_accesses if self.raf is not None else 0
        return self.btree.page_accesses + raf_pa

    @property
    def distance_computations(self) -> int:
        return self.distance.count

    @property
    def size_in_bytes(self) -> int:
        """Index + data storage footprint (the Storage column of Table 6)."""
        raf_bytes = self.raf.size_in_bytes if self.raf is not None else 0
        return self.btree.size_in_bytes + raf_bytes

    def flush_cache(self, reset_stats: bool = False) -> None:
        """Empty the RAF buffer pool (done before each measured query).

        With ``reset_stats=True`` the pool's hit/miss tallies restart too,
        so per-query cache statistics do not bleed across a Fig. 10-style
        flush-between-queries protocol.
        """
        if self.raf is not None:
            self.raf.flush_cache(reset_stats=reset_stats)

    def reset_counters(self) -> None:
        self.distance.reset()
        self.btree.pagefile.counter.reset()
        if self.raf is not None:
            self.raf.pagefile.counter.reset()
