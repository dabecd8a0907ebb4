"""Serve the ``serve-words`` cluster from a child process.

    python3 perfbench/server.py --seed 1 --dir .perfbench_work/srv --trace 0

Builds a 2-shard cluster over the seeded words, replicates every shard to
one follower with primary-only reads (``bench-load``'s self-serve set-up),
starts a ``QueryEngine`` with 2 workers behind the TCP front end, and
prints ``PERFBENCH READY <port>``.  It then obeys commands on stdin:

* ``MARK`` — snapshot the counters (and, with ``--trace 1``, start
  tracing); answers ``PERFBENCH MARKED``;
* ``STOP`` — drain, stop, and print ``PERFBENCH STATS <json>`` with the
  counter deltas since MARK, the footprint, the peak RSS and, when
  traced, the span summary; the spans themselves go to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


ENGINE_WORKERS = 2


def _say(line: str) -> None:
    sys.stdout.write(f"PERFBENCH {line}\n")
    sys.stdout.flush()


def _curves(index) -> list:
    curves = [index.curve] + [s.tree.curve for s in index.shards]
    for rset in index._sets.values():
        curves += [rep.tree.curve for rep in rset.followers]
    return curves


def _pools(index) -> tuple[int, int]:
    pools = [s.tree.raf.buffer_pool for s in index.shards]
    return sum(p.hits for p in pools), sum(p.misses for p in pools)


def _snapshot(index, engine, server) -> dict:
    hits, misses = _pools(index)
    return {
        "compdists": index.distance_computations,
        "pa": index.page_accesses,
        "served": engine.served,
        "retries": engine.retries,
        "rejected": server.rejected,
        "requests": server.requests,
        "pool_hits": hits,
        "pool_misses": misses,
        "wchar": common.bytes_written() or 0,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    from repro import replication
    from repro.cluster.sharded import ShardedIndex
    from repro.distance import EditDistance
    from repro.net import serve_in_thread
    from repro.service.engine import QueryEngine

    data = inputs.words(args.seed)
    metric = data["metric"]
    cluster = ShardedIndex.build(data["base"], metric, shards=2, num_pivots=inputs.NUM_PIVOTS)
    shutil.rmtree(args.dir, ignore_errors=True)
    cluster.save(args.dir)
    cluster.close()
    replication.replicate(args.dir, metric, replicas=1, read_policy="primary-only")
    index = replication.ReplicatedIndex.open(args.dir, metric, wal_fsync=False)
    engine = QueryEngine(index, workers=ENGINE_WORKERS, max_queue=16).start()
    handle = serve_in_thread(engine, "127.0.0.1", 0)
    server = handle.server
    _say(f"READY {handle.port}")

    tracer = None
    mark = None
    try:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "MARK":
                if args.trace:
                    from layers import install

                    tracer = Tracer()
                    install(tracer, EditDistance, _curves(index), serving=True)
                mark = _snapshot(index, engine, server)
                _say("MARKED")
            elif cmd == "STOP":
                break
    finally:
        drained = handle.stop(5.0)
        engine.stop()
    if tracer is not None:
        tracer.unpatch()
    end = _snapshot(index, engine, server)
    stats = {
        "delta": {k: end[k] - (mark or end)[k] for k in end},
        "objects": index.object_count,
        "size_in_bytes": index.size_in_bytes,
        "peak_rss_mb": common.peak_rss_mb(),
        "raf_pages": [s.tree.raf.num_pages for s in index.shards],
        "drain": drained,
    }
    if tracer is not None:
        cols = tracer.arrays()
        summary = summarize(cols)
        summary["results"] = tracer.results
        stats["summary"] = summary
        stats["spans"] = len(cols["sid"])
        if args.spans:
            tracer.save(args.spans)
    index.close()
    shutil.rmtree(args.dir, ignore_errors=True)
    _say("STATS " + json.dumps(stats, default=str))


if __name__ == "__main__":
    main()
