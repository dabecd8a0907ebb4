"""Which public functions mark each layer, and the per-layer metrics.

Layers are named after the program's modules.  ``install`` patches the
boundaries a workload crosses; ``per_layer`` turns a span summary (see
:func:`spans.summarize`) plus counters read from the program into the
per-layer metrics listed in ``BENCHMARK.json``.  A layer a workload does
not cross reports 0.
"""

from __future__ import annotations

from typing import Any

from spans import Tracer

DEGRADED_KINDS = ("deadline", "quorum", "budget", "cancelled")


def result_size(out: Any) -> int:
    """Items in a query answer: a list, an int count or a QueryResult."""
    if isinstance(out, bool) or out is None:
        return 0
    if isinstance(out, int):
        return out
    count = getattr(out, "count", None)
    if isinstance(count, int):
        return count
    try:
        return len(out)
    except TypeError:
        return 0


def install(tracer: Tracer, metric_cls: type, curves: list, serving: bool) -> None:
    """Patch the layer boundaries of the in-process stack (and, with
    ``serving``, of the cluster, replication and engine above it).

    A curve memoizes ``decode`` per instance, so decode is traced on each
    of ``curves`` (the live curve objects) rather than on the class.
    """
    from repro.btree.tree import BPlusTree
    from repro.core.mapping import PivotSpace
    from repro.core.spbtree import SPBTree
    from repro.sfc.hilbert import HilbertCurve
    from repro.storage.raf import RandomAccessFile
    from repro.storage.wal import WriteAheadLog

    tracer.patch(metric_cls, "__call__", "distance")
    for attr in ("phi", "mind_to_cell", "mind_to_box"):
        tracer.patch(PivotSpace, attr, f"mapping.{attr}")
    tracer.patch(HilbertCurve, "encode", "sfc.encode")
    for curve in curves:
        tracer.patch(curve, "decode", "sfc.decode")
    for attr in ("read_node", "insert", "delete", "find_entries"):
        tracer.patch(BPlusTree, attr, f"btree.{attr}")
    tracer.patch(RandomAccessFile, "read", "storage.raf_read")
    tracer.patch(RandomAccessFile, "append", "storage.raf_append")
    for attr in ("append_insert", "append_delete", "truncate", "ship",
                 "append_frames"):
        tracer.patch(WriteAheadLog, attr, f"storage.wal_{attr}")
    for attr in ("knn_query", "knn_into", "range_query", "range_count",
                 "insert", "delete", "checkpoint"):
        tracer.patch(SPBTree, attr, f"spbtree.{attr}")
    if serving:
        _install_serving(tracer)


def _install_serving(tracer: Tracer) -> None:
    from repro.replication.cluster import ReplicatedIndex
    from repro.replication.replicaset import ReplicaSet
    from repro.service.engine import PendingQuery, QueryEngine

    for attr in ("knn_query", "range_query", "range_count"):
        def counting(original, name=f"cluster.{attr}"):
            traced = tracer.wrap(original, name)

            def call(*args, **kwargs):
                out = traced(*args, **kwargs)
                tracer.add_results(result_size(out))
                return out

            return call

        tracer.patch_hook(ReplicatedIndex, attr, counting)
    for attr in ("insert", "delete"):
        tracer.patch(ReplicatedIndex, attr, f"cluster.{attr}")
    tracer.patch(ReplicaSet, "ship", "replication.ship")

    # The engine span runs from admission (submit, on the event loop) to
    # the moment the waiting handler gets the answer (result, on an
    # executor thread); the index call in between runs on a worker thread
    # and is tied to it through the request's query context.
    def submit_hook(original):
        def submit(self, kind, *args, **kwargs):
            import time

            t0 = time.perf_counter()
            pending = original(self, kind, *args, **kwargs)
            if kind != "task":
                # Mutations reach the index without the context; their
                # object argument ties the index call to this span.
                linked = (pending.context,) + (args if kind in ("insert", "delete") else ())
                tracer.open_detached(f"service.{kind}", pending, linked, t0=t0)
            return pending

        return submit

    def result_hook(original):
        def result(self, timeout=None):
            try:
                return original(self, timeout)
            finally:
                if self.done:
                    tracer.close_detached(self)

        return result

    tracer.patch_hook(QueryEngine, "submit", submit_hook)
    tracer.patch_hook(PendingQuery, "result", result_hook)


def _per(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def per_layer(summary: dict, extra: dict) -> dict:
    """The per-layer metrics (values only) from one traced run.

    ``summary`` comes from :func:`spans.summarize` over the requests the
    run traced; ``extra`` carries what the spans cannot: ``ops`` (request
    roots), ``mutations``, ``inserts``, pool hits/misses, the write
    amplification, failure tallies and the tracing overhead.
    """
    calls = summary.get("calls", {})
    self_s = summary.get("self_s", {})
    self_name = summary.get("self_name_s", {})
    dur = summary.get("dur_s", {})
    under = summary.get("children_of", {})
    ops = int(extra.get("ops", 0))
    mutations = int(extra.get("mutations", 0))
    inserts = int(extra.get("inserts", 0))
    root_s = summary.get("root_s", 0.0)

    def calls_of(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    def sum_of(table: dict, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    hits, misses = extra.get("pool_hits", 0), extra.get("pool_misses", 0)
    verifications = sum_of(under, "distance<spbtree.")
    reads = ("knn_query", "range_query", "range_count")
    cluster_reads = sum(calls.get(f"cluster.{a}", 0) for a in reads)
    shard_reads = sum(under.get(f"spbtree<cluster.{a}", 0) for a in reads)
    out = {
        "distance.calls": _per(calls.get("distance", 0), ops),
        "distance.ms": _per(self_s.get("distance", 0.0) * 1e3, ops),
        "distance.share": self_s.get("distance", 0.0) / root_s if root_s else 0.0,
        "mapping.calls": _per(calls_of("mapping."), ops),
        "mapping.ms": _per(self_s.get("mapping", 0.0) * 1e3, ops),
        "sfc.calls": _per(calls_of("sfc."), ops),
        "sfc.ms": _per(self_s.get("sfc", 0.0) * 1e3, ops),
        "btree.node_reads": _per(calls.get("btree.read_node", 0), ops),
        "btree.ms": _per(self_s.get("btree", 0.0) * 1e3, ops),
        "storage.raf_reads": _per(calls.get("storage.raf_read", 0), ops),
        "storage.raf_ms": _per(self_name.get("storage.raf_read", 0.0) * 1e3, ops),
        "storage.pool_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "storage.wal_ms": _per(sum_of(self_name, "storage.wal_") * 1e3, mutations),
        "storage.write_amp": float(extra.get("write_amp", 0.0)),
        "storage.checkpoint_ms": float(extra.get("checkpoint_ms", 0.0)),
        "spbtree.self_ms": _per(self_s.get("spbtree", 0.0) * 1e3, ops),
        "spbtree.verify_yield": (
            summary.get("results", 0) / verifications if verifications else 0.0
        ),
        "cluster.self_ms": _per(self_s.get("cluster", 0.0) * 1e3, ops),
        "cluster.shards_per_op": _per(shard_reads, cluster_reads),
        "service.wait_ms": _per(self_s.get("service", 0.0) * 1e3, ops),
        "service.rejected_share": float(extra.get("rejected_share", 0.0)),
        "service.retries": float(extra.get("engine_retries", 0.0)),
        "net.overhead_ms": float(extra.get("net_overhead_ms", 0.0)),
        "net.client_retries": float(extra.get("client_retries", 0.0)),
        "replication.ship_ms": _per(dur.get("replication.ship", 0.0) * 1e3, inserts),
        "loadgen.late_p99_ms": float(extra.get("late_p99_ms", 0.0)),
        "trace.overhead_ratio": float(extra.get("overhead_ratio", 0.0)),
    }
    degraded = extra.get("degraded_by_reason", {})
    for kind in DEGRADED_KINDS:
        out[f"replication.degraded_by_reason.{kind}"] = float(degraded.get(kind, 0))
    return out
