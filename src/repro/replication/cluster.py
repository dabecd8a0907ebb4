"""A sharded SPB-tree where every shard is a replica set.

:class:`ReplicatedIndex` keeps the whole :class:`ShardedIndex` contract
(routing, scatter-gather, rebalancing, crash-safe catalogs) and adds:

* **Synchronous WAL shipping** — every write commits to the primary's
  log, applies, and is shipped to every healthy follower *before* the
  call returns, so a client-acknowledged write survives losing the
  primary outright.
* **Replica read-routing** — :meth:`_read_tree` resolves each scatter
  sub-read through a deterministic :class:`ReplicaSelector` policy
  (``primary-only`` / ``round-robin`` / ``fastest-mind``), so a
  replication factor of N multiplies read capacity.
* **Honest degradation** — when a shard's primary is down or its
  replica-set majority is lost, context-carrying queries still answer
  from the surviving members but report ``complete=False`` with a
  reason naming the shard.
* **Crash-proven promotion** — :meth:`failover` picks the healthy
  follower with the longest valid WAL prefix, folds its log into a new
  generation (the *fence*: the generation bump outdates the
  ex-primary's log), and commits the role swap with the one atomic
  catalog rename every other structural change already uses.  A zombie
  ex-primary is refused at its own WAL
  (:class:`~repro.storage.wal.StaleWalError`) the moment it next sees
  the promoted catalog.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Optional

from repro.cluster.catalog import (
    CLUSTER_FILE,
    READ_POLICIES,
    ReplicaMeta,
    load_catalog,
    save_catalog,
)
from repro.cluster.router import ReplicaSelector
from repro.cluster.sharded import (
    ClusterResult,
    Shard,
    ShardExhaustion,
    ShardedIndex,
)
from repro.core.spbtree import SPBTree
from repro.distance.base import Metric
from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.replication.monitor import DEFAULT_TIMEOUT, Monitor
from repro.replication.replicaset import (
    NoPromotableFollowerError,
    PrimaryDownError,
    Replica,
    ReplicaSet,
    ReplicationError,
)
from repro.service.context import QueryContext
from repro.storage.faults import FaultInjector
from repro.storage.wal import WAL_FILE, scan_wal


def replicate(
    directory: str,
    metric: Metric,
    replicas: int = 2,
    read_policy: str = "primary-only",
) -> "list[int]":
    """Convert a saved (unreplicated) cluster into a replicated one.

    For every shard, ``replicas`` follower directories
    ``<shard-dir>.r<k>`` are seeded as byte copies of the primary's
    directory (tree generations, page files, and WAL — so each follower
    starts at the primary's exact position) and the catalog is rewritten
    with the replica membership and ``read_policy``.  Returns the shard
    ids that were replicated.  Idempotence: a shard that already has
    replica rows is refused — membership changes are a failover/resync
    concern, not a re-run of this bootstrap.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if read_policy not in READ_POLICIES:
        raise ValueError(
            f"unknown read policy {read_policy!r}; "
            f"expected one of {READ_POLICIES}"
        )
    cat = load_catalog(directory)
    if cat.metric_name != metric.name:
        raise ValueError(
            f"cluster was built with metric {cat.metric_name!r}, "
            f"got {metric.name!r}"
        )
    done = []
    for meta in cat.shards:
        if meta.replicas:
            raise ReplicationError(
                f"shard {meta.shard_id} already has "
                f"{len(meta.replicas)} replicas"
            )
        pdir = os.path.join(directory, meta.directory)
        os.makedirs(pdir, exist_ok=True)
        rows = [ReplicaMeta(0, meta.directory, "primary")]
        for k in range(1, replicas + 1):
            fname = f"{meta.directory}.r{k}"
            fdir = os.path.join(directory, fname)
            shutil.rmtree(fdir, ignore_errors=True)
            shutil.copytree(pdir, fdir)
            header, _, valid_end, _ = scan_wal(os.path.join(fdir, WAL_FILE))
            gen = header.base_generation if header is not None else -1
            rows.append(ReplicaMeta(k, fname, "follower", gen, valid_end))
        meta.replicas = rows
        done.append(meta.shard_id)
    cat.read_policy = read_policy
    save_catalog(directory, cat)
    return done


class ReplicatedIndex(ShardedIndex):
    """A :class:`ShardedIndex` whose shards are primary+follower sets."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: ``shard_id -> ReplicaSet`` for every replicated shard.
        self._sets: dict[int, ReplicaSet] = {}
        self.monitor: Monitor = Monitor()
        self._selector = ReplicaSelector("primary-only")
        self._fence_stamp: Optional[tuple[int, int]] = None
        self._fence_gens: dict[int, int] = {}
        #: Attached self-healing loop, if any (set by ``Supervisor``).
        self.supervisor: Optional[Any] = None

    # --------------------------------------------------------------- opening

    @classmethod
    def open(
        cls,
        directory: str,
        metric: Metric,
        wal_fsync: bool = True,
        faults: Optional[FaultInjector] = None,
        heartbeat_timeout: float = DEFAULT_TIMEOUT,
        clock: Optional[Any] = None,
    ) -> "ReplicatedIndex":
        """Reopen a replicated cluster for writing.

        Follower trees are loaded from their own directories (their logs
        replaying exactly as a primary's would) and every member starts
        healthy; pass ``clock`` to drive heartbeats deterministically.
        """
        self = super().open(directory, metric, wal_fsync=wal_fsync, faults=faults)
        self.monitor = Monitor(timeout=heartbeat_timeout, clock=clock)
        self._selector = ReplicaSelector(self._read_policy)
        for shard in self.shards:
            rows = self._replica_meta.get(shard.shard_id)
            if not rows:
                continue
            primary_row = next(r for r in rows if r.role == "primary")
            primary = Replica(
                primary_row.replica_id, shard.dirname, shard.tree, shard.tree.wal
            )
            rset = ReplicaSet(
                shard.shard_id,
                directory,
                primary,
                [],
                metric,
                self._empty_tree,
                self.monitor,
                wal_fsync=wal_fsync,
                faults=faults,
            )
            for row in rows:
                if row.role == "follower":
                    rset.add_follower(row.replica_id, row.directory)
            # Catch-up pump: a freshly seeded follower has no log of its
            # own yet (``save`` folds the WAL into the snapshot), so one
            # ship brings every member to lag zero before the first write.
            rset.ship()
            self._sets[shard.shard_id] = rset
        return self

    def _empty_tree(self) -> SPBTree:
        """A fresh empty stack matching the cluster's parameters (the
        follower counterpart of a never-checkpointed shard)."""
        return SPBTree(
            self.distance.metric,
            list(self.space.pivots),
            self.space.d_plus,
            curve=self._curve_name,
            delta=self.space.delta,
            page_size=self._page_size,
            cache_pages=self._cache_pages,
            serializer=self._serializer,
            checksums=self._checksums,
        )

    def close(self) -> None:
        super().close()
        for rset in self._sets.values():
            rset.close()

    # ---------------------------------------------------------------- writes

    def insert(self, obj: Any) -> None:
        """Route to the primary, commit, then ship to every healthy
        follower *before* returning — the acknowledged write is durable
        on every healthy member of the set."""
        with self._lock.read():
            grid = self.space.grid(obj)
            key = self.curve.encode(grid)
            shard = self.router.shard_for_key(key)
            rset = self._require_writable(shard)
            shard.tree.insert(obj, grid=grid)
            self.router.note_insert(shard)
            self._gauge_shard(shard)
            if rset is not None:
                self.monitor.beat(shard.shard_id, rset.primary.replica_id)
                rset.ship()

    def delete(self, obj: Any) -> bool:
        with self._lock.read():
            grid = self.space.grid(obj)
            key = self.curve.encode(grid)
            shard = self.router.shard_for_key(key)
            rset = self._require_writable(shard)
            removed = shard.tree.delete(obj, grid=grid)
            if removed:
                self.router.note_delete(shard)
                self._gauge_shard(shard)
                if rset is not None:
                    self.monitor.beat(shard.shard_id, rset.primary.replica_id)
                    rset.ship()
            return removed

    def _require_writable(self, shard: Shard) -> Optional[ReplicaSet]:
        """Writes always route to the primary: fence a stale one, refuse
        a down one.  Returns the shard's replica set (None if the shard
        is unreplicated)."""
        rset = self._sets.get(shard.shard_id)
        if rset is None:
            return None
        self._fence(shard)
        if not rset.healthy(rset.primary.replica_id):
            raise PrimaryDownError(
                f"shard {shard.shard_id} primary {rset.primary.replica_id} "
                "is down; writes require a promotion (shard-failover)"
            )
        return rset

    def _fence(self, shard: Shard) -> None:
        """Generation fencing: refuse a primary whose WAL predates the
        catalog's recorded shard generation.

        A promotion folds the new primary's log into generation ``g+1``
        and commits it via the catalog rename; an ex-primary that missed
        the promotion still holds a tree and log at ``g`` and must never
        take another write.  The catalog is re-read only when its
        stat signature changes, so the steady-state cost is one
        ``os.stat`` per write.
        """
        wal = shard.tree.wal
        if wal is None or self.directory is None:
            return
        gen = self._catalog_generation(shard.shard_id)
        if gen is None or shard.tree._generation >= gen:
            # In-memory tree is at (or ahead of) the committed catalog:
            # this instance performed or observed the latest commit.
            return
        wal.require_base_generation(gen)

    def _catalog_generation(self, shard_id: int) -> Optional[int]:
        assert self.directory is not None
        path = os.path.join(self.directory, CLUSTER_FILE)
        try:
            st = os.stat(path)
        except OSError:
            return None
        stamp = (st.st_mtime_ns, st.st_size)
        if stamp != self._fence_stamp:
            try:
                with open(path, "rb") as fh:
                    payload = json.loads(fh.read().decode("utf-8"))
                self._fence_gens = {
                    int(row["id"]): int(row.get("generation", 0))
                    for row in payload.get("shards", [])
                }
            except (OSError, ValueError, KeyError):
                return None
            self._fence_stamp = stamp
        return self._fence_gens.get(shard_id)

    # ----------------------------------------------------------------- reads

    def _read_tree(self, shard: Shard, ctx: QueryContext) -> SPBTree:
        rset = self._sets.get(shard.shard_id)
        if rset is None:
            return shard.tree
        rid = self._selector.choose(
            shard.shard_id, rset.member_ids(), rset.healthy, rset.lag
        )
        if ctx.trace is not None:
            # Replica identity on the sub-read's trace: which member served
            # this read and how far behind the primary it was at choice
            # time.  The scatter folds these root counts into the parent's
            # ``shard-<id>`` span (last visit wins for identity).
            counts = ctx.trace.root.counts
            counts["replica"] = f"r{rid}"
            counts["replica_lag_bytes"] = int(rset.lag(rid))
        return rset.tree_for(rid)

    def range_query(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext] = None,
        engine: Optional[Any] = None,
    ) -> "list[Any] | ClusterResult":
        out = super().range_query(query, radius, context=context, engine=engine)
        return self._mark_degraded(out, context)

    def knn_query(
        self,
        query: Any,
        k: int,
        traversal: str = "incremental",
        context: Optional[QueryContext] = None,
        engine: Optional[Any] = None,
        strategy: str = "best-first",
    ) -> "list[tuple[float, Any]] | ClusterResult":
        out = super().knn_query(query, k, traversal, context, engine, strategy)
        return self._mark_degraded(out, context)

    def range_count(
        self,
        query: Any,
        radius: float,
        context: Optional[QueryContext] = None,
        engine: Optional[Any] = None,
    ) -> "int | ClusterResult":
        out = super().range_count(query, radius, context=context, engine=engine)
        return self._mark_degraded(out, context)

    def degraded_shards(self) -> dict[int, ShardExhaustion]:
        """Shards whose replica set cannot currently honour the write/read
        contract: primary down (no writes, reads possibly stale) or
        majority lost.  Keyed by shard id, valued by the reason a
        degraded result carries."""
        out: dict[int, ShardExhaustion] = {}
        for sid, rset in self._sets.items():
            members = rset.member_ids()
            alive = sum(1 for m in members if rset.healthy(m))
            need = len(members) // 2 + 1
            if not rset.healthy(rset.primary.replica_id) or alive < need:
                out[sid] = ShardExhaustion(
                    kind="quorum", limit=float(need), spent=float(alive),
                    shard=sid,
                )
        return out

    def _mark_degraded(
        self, out: Any, context: Optional[QueryContext] = None
    ) -> Any:
        """Stamp quorum-lost shards onto a context-carrying result.

        The surviving members still answered (availability), but the
        caller is told, per shard, that the set is degraded — the same
        honesty contract budget exhaustion already follows.  Plain
        (context-less) results are lists/ints and pass through.  The
        trace (already finished by the scatter layer) is re-finished so
        its outcome agrees with the downgraded reply.
        """
        if not isinstance(out, ClusterResult):
            return out
        degraded = self.degraded_shards()
        if not degraded:
            return out
        for sid, reason in degraded.items():
            entry = out.per_shard.setdefault(
                sid, {"compdists": 0, "page_accesses": 0}
            )
            entry["complete"] = False
            entry["reason"] = str(reason)
            if out.complete:
                out.complete = False
                out.reason = reason
        if (
            context is not None
            and context.trace is not None
            and not out.complete
        ):
            context.trace.finish(context, out.complete, out.reason)
        return out

    # -------------------------------------------------------------- shipping

    def ship_all(self, request_id: Optional[str] = None) -> dict[int, int]:
        """Pump every replicated shard once; ``shard_id -> bytes shipped``.
        Shards with a down primary are skipped (they need a promotion,
        not a pump).  ``request_id`` is accepted so engine-submitted ship
        tasks stay correlatable; shipping itself records nothing."""
        del request_id  # identity rides on the engine task's context
        with self._lock.read():
            out = {}
            for sid, rset in sorted(self._sets.items()):
                if not rset.healthy(rset.primary.replica_id):
                    continue
                out[sid] = rset.ship()
            return out

    def check_health(self) -> dict[int, "list[int]"]:
        """Probe every replica set; ``shard_id -> unhealthy replica ids``.
        Misses feed the per-shard heartbeat-miss counter."""
        return {
            sid: self.monitor.check(sid, rset.member_ids())
            for sid, rset in sorted(self._sets.items())
        }

    def replication_status(self) -> dict[int, dict]:
        """Operator-facing snapshot: roles, health, lag per shard."""
        out: dict[int, dict] = {}
        degraded = self.degraded_shards()
        for sid, rset in sorted(self._sets.items()):
            out[sid] = {
                "primary": rset.primary.replica_id,
                "members": [
                    {
                        "replica": rid,
                        "role": (
                            "primary"
                            if rid == rset.primary.replica_id
                            else "follower"
                        ),
                        "healthy": rset.healthy(rid),
                        "lag_bytes": rset.lag(rid),
                    }
                    for rid in rset.member_ids()
                ],
                "degraded": sid in degraded,
            }
        return out

    # ------------------------------------------------------------- promotion

    def failover(
        self,
        shard_id: int,
        faults: Optional[FaultInjector] = None,
        request_id: Optional[str] = None,
    ) -> dict:
        """Promote the best follower of ``shard_id`` to primary.

        The sequence is crash-proven end to end:

        1. pick the healthy follower with the longest valid WAL prefix
           (every fully-acknowledged write is on it);
        2. fold its log into a new generation in *its own* directory —
           pure preparation: the old catalog still names the old
           primary, so a crash here changes nothing visible;
        3. rewrite the cluster catalog naming the follower's directory
           as the shard's — the atomic rename is the single commit
           point.  Before it: the old membership.  After it: the new.
           Never a hybrid.

        The generation bump in step 2 is the fence — the ex-primary's
        log is now stale, so when it returns it re-syncs as a follower
        and can never take a write against the promoted catalog.
        """
        if faults is None:
            faults = self._faults
        with self._lock.write():
            rset = self._sets.get(shard_id)
            if rset is None:
                raise ReplicationError(
                    f"shard {shard_id} is not replicated; nothing to fail over"
                )
            shard = self._shard_by_id(shard_id)
            candidate = rset.best_follower()
            if candidate.tree.wal is None:
                candidate.tree.begin_logging(candidate.wal)
            assert self.directory is not None
            generation = candidate.tree.checkpoint(
                os.path.join(self.directory, candidate.directory),
                faults=faults,
            )
            old = rset.promote(candidate)
            shard.tree = candidate.tree
            shard.dirname = candidate.directory
            self.router.note_insert(shard)  # new tree: drop the cached MBB
            self._write_catalog(faults)  # the commit point
            self._gauge_shard(shard)
            out = {
                "shard": shard_id,
                "promoted": candidate.replica_id,
                "demoted": old.replica_id,
                "generation": generation,
            }
            if request_id is not None:
                # Correlate an engine/CLI-driven promotion with the request
                # that asked for it (supervisor journal detail, flight dump).
                out["request_id"] = request_id
            return out

    # ------------------------------------------------------------ structural

    def checkpoint(self, faults: Optional[FaultInjector] = None) -> None:
        """Ship first, fold every primary's WAL, then re-sync followers.

        Folding starts a new log generation, which makes every
        follower's position stale by design; the re-sync pass re-seeds
        them from the fresh snapshots and a second catalog write records
        the new positions.  A crash between the two leaves stale
        (generation-mismatched) acked rows, which load ignores — the
        followers simply re-sync on their next ship.
        """
        with self._lock.read():
            for rset in self._sets.values():
                if rset.healthy(rset.primary.replica_id):
                    rset.ship()
        super().checkpoint(faults)
        if not self._sets:
            return
        with self._lock.write():
            for rset in self._sets.values():
                rset.resync_all()
            self._write_catalog(faults if faults is not None else self._faults)

    def rebalance(
        self,
        split: Optional[int] = None,
        merge: Optional[tuple[int, int]] = None,
        faults: Optional[FaultInjector] = None,
    ) -> Optional[dict]:
        """Rebalance, then drop replica sets of retired shards (a
        rebalanced shard is re-replicated explicitly)."""
        out = super().rebalance(split=split, merge=merge, faults=faults)
        live = {s.shard_id for s in self.shards}
        for sid in list(self._sets):
            if sid not in live:
                rset = self._sets.pop(sid)
                for rid in rset.member_ids():
                    self.monitor.forget(sid, rid)
                rset.close()
        return out

    def _catalog(self):
        # Refresh replica rows (roles + acked positions) from the live
        # sets so every catalog write records current membership.
        for sid, rset in self._sets.items():
            self._replica_meta[sid] = rset.rows()
        return super()._catalog()
