"""The two in-process workloads: ``tree-color`` and ``churn-color``.

Both run one thread in a closed loop over a bare ``SPBTree`` of 20 000
color histograms under L5, in the default configuration (Hilbert curve,
5 HFI pivots, 32-page buffer pool, obs and tuner off).  Every op uses a
query of its own from the seeded pool (see ``inputs.py``).

* ``tree-color`` runs kNN (k=8, incremental), range and count queries
  over an in-memory tree whose RAF is ~21x the buffer pool; after each
  query it times one unlogged insert into the first of its set-ups' trees.
* ``churn-color`` opens the tree from disk with a WAL (fsync on) and
  repeats insert / kNN / range / delete, checkpointing every fixed number
  of mutations.

The paper counters (compdists, PA) are read over a fixed number of first
ops, which start from a flushed buffer pool, so they repeat exactly for
one seed whatever the machine's speed.  Times are scaled to a nominal
speed by ``common.Pace``; the raw times go into the record.
"""

from __future__ import annotations

import collections
import gc
import json
import os
import random
import shutil
import time
from typing import Any, Callable

import common
import inputs
import oracle
from layers import install, per_layer, result_size
from spans import Tracer, summarize

K = inputs.K
TAIL_PERCENTILE = 95.0  # leaves >= 12.5 of the >= 250 samples per op beyond it
SETUPS = 3  # set-ups per untraced run; setup_s is their median
ORACLE_SAMPLE = 6  # queries (tree-color) / cycles (churn-color) checked
INSERT_PROBE = 1000  # most unlogged inserts tree-color times (one per read)
COUNTED = 750  # tree-color ops whose counters are reported (250 per kind)
TRACED = 150  # tree-color ops a traced run traces
CHURN_PASS = 250  # churn-color cycles whose counters are reported
CHURN_TRACED = 50  # churn-color cycles a traced run traces
CHECKPOINT_EVERY = 100  # mutations between churn-color checkpoints


def build(d: dict):
    from repro.core.spbtree import SPBTree

    return SPBTree.build(
        d["base"], d["metric"], num_pivots=inputs.NUM_PIVOTS, d_plus=d["d_plus"]
    )


def color_data(seed: int, estimate: float, **kwargs) -> dict:
    return inputs.with_radius(inputs.color(seed, **kwargs), "color", estimate)


def churn_data(seed: int, estimate: float) -> dict:
    """The color data with one query per query a counted pass runs, the
    same ones every run in a seeded order: the counters and latencies of
    the counted pass then do not hinge on which queries the seed drew."""
    return color_data(seed, estimate, queries=2 * CHURN_PASS, fixed_queries=True)


def color_estimate(seed: int, cache: str | None) -> float:
    """The program's own d+ estimate for the color data, which its build
    would compute when given none.  It walks every pair of objects (~20 s
    at 20 000 objects on a 2-core box), so it is computed outside the
    timed set-ups and each build is given the value.  The base objects do
    not depend on the seed, so the value is kept in ``cache``, keyed by
    the program's source and the inputs, and computed again only when
    either changes."""
    import repro

    key = json.dumps([
        "color-d-plus", common.tree_digest(os.path.dirname(repro.__file__)),
        inputs.DATA_SEED, inputs.COLOR_SIZE, inputs.COLOR_POOL,
    ])
    return common.memo(cache, key, lambda: inputs.d_plus(inputs.color(seed)))


def key(obj: Any) -> bytes:
    return obj.tobytes()


def _counters(tree) -> tuple[int, int]:
    return tree.distance_computations, tree.page_accesses


class _Ops:
    """Times each call (and probes the box's pace between calls),
    optionally inside a traced request root."""

    def __init__(self, pace: common.Pace, tracer: Tracer | None = None) -> None:
        self.pace = pace
        self.tracer = tracer
        self.lat: dict[str, list[tuple[float, float]]] = {}  # kind -> (t0, t1)

    def run(self, kind: str, fn: Callable[[], Any]) -> Any:
        self.pace.maybe()
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn()
        else:
            with self.tracer.root(f"op.{kind}"):
                out = fn()
            self.tracer.add_results(result_size(out) if kind != "checkpoint" else 0)
        self.lat.setdefault(kind, []).append((t0, time.perf_counter()))
        return out

    @property
    def count(self) -> int:
        return sum(len(v) for v in self.lat.values())

    def scaled_ms(self, kind: str) -> list[float]:
        return [self.pace.scale(t0, t1) * 1e3 for t0, t1 in self.lat.get(kind, [])]

    def raw_ms(self, kind: str) -> list[float]:
        return [(t1 - t0) * 1e3 for t0, t1 in self.lat.get(kind, [])]

    def scaled_total(self) -> float:
        return sum(self.pace.scale(t0, t1) for v in self.lat.values() for t0, t1 in v)


def _timed_setup(pace: common.Pace, make: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run one set-up between two pace probes: (result, scaled s, raw s)."""
    gc.collect()
    pace.probe(common.SETUP_PROBES)
    t0 = time.perf_counter()
    out = make()
    t1 = time.perf_counter()
    pace.probe(common.SETUP_PROBES)
    return out, pace.scale(t0, t1), t1 - t0


def _latency_metrics(runner: _Ops, tail_p: float, unscaled: tuple = ()) -> dict:
    """Median and tail per op kind, scaled to the nominal box speed except
    for the kinds in ``unscaled``."""
    out = {}
    for kind in ("knn", "range", "insert"):
        vals = runner.raw_ms(kind) if kind in unscaled else runner.scaled_ms(kind)
        out[f"{kind}_p50_ms"] = common.percentile(vals, 50.0)
        out[f"{kind}_tail_ms"] = common.percentile(vals, tail_p)
    return out


def _raw_detail(runner: _Ops, tail_p: float) -> dict:
    """Unscaled latencies and sample counts, for the record."""
    return {
        kind: common.latency_summary(runner.raw_ms(kind), tail_p)
        for kind in runner.lat
    }


# ------------------------------------------------------------ tree-color


def _tree_ops(data: dict, seed: int) -> list[tuple[str, Any]]:
    """One op per query, kinds in seeded blocks of (kNN, range, count), so
    every prefix of 3n ops holds n of each kind."""
    rng = random.Random(seed)
    kinds = ("knn", "range", "count")
    ops = []
    for i, q in enumerate(data["queries"]):
        if i % 3 == 0:
            block = rng.sample(kinds, 3)
        ops.append((block[i % 3], q))
    return ops


def _tree_call(tree, data: dict, kind: str, q: Any) -> Callable[[], Any]:
    if kind == "knn":
        return lambda: tree.knn_query(q, K)
    if kind == "range":
        return lambda: tree.range_query(q, data["radius"])
    return lambda: tree.range_count(q, data["radius"])


def _tree_pass(tree, data, ops, runner: _Ops, answers: dict | None = None,
               after: Callable[[], None] = lambda: None):
    """Run ``ops`` from a flushed pool, calling ``after`` after each;
    returns their counters."""
    tree.flush_cache(reset_stats=True)
    tree.reset_counters()
    for i, (kind, q) in enumerate(ops):
        out = runner.run(kind, _tree_call(tree, data, kind, q))
        if answers is not None and i in answers:
            answers[i] = out
        after()
    return _counters(tree)


def _oracle_sample(ops: list, seed: int) -> dict:
    """Seeded positions in ``ops`` whose answers get checked."""
    return {i: None for i in random.Random(seed + 1).sample(range(len(ops)), ORACLE_SAMPLE)}


def _check_tree_answers(data, ops, answers: dict) -> list[str]:
    from repro.baselines.linear import LinearScan

    scan = LinearScan(data["base"], data["metric"])
    errors = []
    for i, got in answers.items():
        kind, q = ops[i]
        if kind == "knn":
            err = oracle.exact_knn(got, scan.knn_query(q, K))
        elif kind == "range":
            err = oracle.exact_range(got, scan.range_query(q, data["radius"]), key)
        else:
            err = oracle.exact_count(got, len(scan.range_query(q, data["radius"])))
        if err:
            errors.append(f"op {i} ({kind}): {err}")
    return errors


class _Inserts:
    """Unlogged inserts of the fresh objects into a tree of their own, one
    per call, so they are timed across the whole run (a burst of box noise
    then hits few of them) while the reads run on the base objects only."""

    def __init__(self, tree, data, runner: _Ops) -> None:
        self.tree, self.data, self.runner = tree, data, runner
        self.fresh = data["fresh"][:INSERT_PROBE]
        self.done = 0

    def __call__(self) -> None:
        if self.done < len(self.fresh):
            obj = self.fresh[self.done]
            self.runner.run("insert", lambda: self.tree.insert(obj))
            self.done += 1

    def check(self) -> list[str]:
        errors = []
        if len(self.tree) != len(self.data["base"]) + self.done:
            errors.append(f"tree holds {len(self.tree)} objects after {self.done} inserts")
        last = self.fresh[self.done - 1]
        nearest = self.tree.knn_query(last, 1)
        if not nearest or nearest[0][0] != 0.0:
            errors.append("an inserted object is not its own nearest neighbour")
        return errors


def tree_color(seed: int, seconds: float, trace: bool, cache: str | None = None) -> dict:
    tail_p = TAIL_PERCENTILE
    estimate = color_estimate(seed, cache)
    if trace:
        data = color_data(seed, estimate)
        return _tree_color_traced(data, _tree_ops(data, seed)[:TRACED])

    pace = common.Pace()
    setups, raw_setups, tree, first_tree = [], [], None, None
    for n in range(SETUPS):
        tree = None
        (data, tree), scaled, raw = _timed_setup(pace, lambda: _built(seed, estimate))
        setups.append(scaled)
        raw_setups.append(raw)
        if first_tree is None:
            first_tree = tree
    # The first set-up's tree takes the inserts, the last one the reads.
    inserts = _Inserts(first_tree, data, _Ops(pace))
    ops = _tree_ops(data, seed)

    answers = _oracle_sample(ops[:COUNTED], seed)
    runner = _Ops(pace)
    t0 = time.perf_counter()
    first = _tree_pass(tree, data, ops[:COUNTED], runner, answers, after=inserts)
    done = COUNTED
    while time.perf_counter() - t0 < seconds:
        kind, q = ops[done % len(ops)]
        runner.run(kind, _tree_call(tree, data, kind, q))
        inserts()
        done += 1
    reads_s = runner.scaled_total()
    pool = tree.raf.buffer_pool
    errors = _check_tree_answers(data, ops, answers) + inserts.check()
    runner.lat["insert"] = inserts.runner.lat["insert"]

    metrics = {
        "setup_s": common.median(setups),
        **_latency_metrics(runner, tail_p),
        "ops_per_s": done / reads_s,
        "compdists_per_query": first[0] / COUNTED,
        "pa_per_query": first[1] / COUNTED,
        "peak_rss_mb": common.peak_rss_mb(),
        "bytes_per_object": tree.size_in_bytes / tree.object_count,
    }
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": runner.count,
        "failed": 0,
        "metrics": metrics,
        "detail": {
            "setups_s_raw": raw_setups,
            "setups_s_scaled": setups,
            "counted": {"compdists": first[0], "pa": first[1], "ops": COUNTED},
            "raw_latency_ms": _raw_detail(runner, tail_p),
            "ops_per_s_raw": done / (time.perf_counter() - t0),
            "pace_probes": len(pace.samples),
            "raf_pages": tree.raf.num_pages,
            "pool_hit_ratio": pool.hits / max(1, pool.hits + pool.misses),
            "oracle_checked": len(answers),
        },
    }


def _built(seed: int, estimate: float):
    data = color_data(seed, estimate)
    return data, build(data)


def _tree_color_traced(data, ops) -> dict:
    from repro.distance import MinkowskiDistance

    tree = build(data)
    pace = common.Pace()
    plain = _Ops(pace)
    untraced = _tree_pass(tree, data, ops, plain)

    tracer = Tracer()
    install(tracer, MinkowskiDistance, [tree.curve], serving=False)
    try:
        runner = _Ops(pace, tracer)
        answers = _oracle_sample(ops, data["seed"])
        traced = _tree_pass(tree, data, ops, runner, answers)
        pool = tree.raf.buffer_pool
        hits, misses = pool.hits, pool.misses
    finally:
        tracer.unpatch()
    errors = _check_tree_answers(data, ops, answers)
    if traced != untraced:
        errors.append(f"traced pass counted {traced}, untraced {untraced}")
    return _traced_result(
        tracer, runner, errors,
        {
            "pool_hits": hits,
            "pool_misses": misses,
            "overhead_ratio": runner.scaled_total() / plain.scaled_total(),
        },
        {"untraced_counters": untraced, "traced_counters": traced},
    )


def _traced_result(tracer, runner, errors, extra, detail) -> dict:
    cols = tracer.arrays()
    summary = summarize(cols)
    summary["results"] = tracer.results
    extra["ops"] = sum(summary["roots"].values())
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": runner.count,
        "failed": 0,
        "metrics": per_layer(summary, extra),
        "detail": {**detail, "spans": len(cols["sid"]), "roots": summary["roots"]},
        "tracer": tracer,
    }


# ----------------------------------------------------------- churn-color


class _Churn:
    """One on-disk tree with a WAL, and the mirror of its live objects.

    Each cycle inserts the oldest object not in the tree (the fresh
    objects first, then the ones deleted earlier) and deletes a seeded
    live object, so a run of any length never runs out of either.
    """

    def __init__(self, data: dict, directory: str) -> None:
        from repro.core.persist import open_tree, save_tree

        shutil.rmtree(directory, ignore_errors=True)
        self.data = data
        tree = build(data)
        save_tree(tree, directory)
        del tree
        self.tree = open_tree(directory, data["metric"], wal_fsync=True)
        self.directory = directory
        self.live = list(data["base"])
        self.where = {key(o): i for i, o in enumerate(self.live)}
        self.spare = collections.deque(data["fresh"])
        self.rng = random.Random(data["seed"])
        self.mutations = 0
        self.user_bytes = 0
        #: Time and counted work the oracle spent, kept out of the metrics.
        self.oracle_s = 0.0
        self.oracle_counts = (0, 0)

    def close(self) -> None:
        self.tree.wal.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _forget(self, obj: Any) -> None:
        i = self.where.pop(key(obj))
        last = self.live.pop()
        if i < len(self.live):
            self.live[i] = last
            self.where[key(last)] = i

    def cycle(self, i: int, runner: _Ops, check: bool) -> list[str]:
        """Insert, kNN, range, delete (+ a checkpoint when due)."""
        data, tree = self.data, self.tree
        fresh = self.spare.popleft()
        runner.run("insert", lambda: tree.insert(fresh))
        self.user_bytes += len(tree.raf.serializer.serialize(fresh))
        self.live.append(fresh)
        self.where[key(fresh)] = len(self.live) - 1
        queries = data["queries"]
        q = queries[2 * i % len(queries)]
        knn = runner.run("knn", lambda: tree.knn_query(q, K))
        rq = queries[(2 * i + 1) % len(queries)]
        rng = runner.run("range", lambda: tree.range_query(rq, data["radius"]))
        errors = self._check(q, knn, rq, rng) if check else []
        victim = self.live[self.rng.randrange(len(self.live))]
        removed = runner.run("delete", lambda: tree.delete(victim))
        if not removed:
            errors.append("delete of a live object returned False")
        self._forget(victim)
        self.spare.append(victim)
        self.mutations += 2
        if self.mutations % CHECKPOINT_EVERY == 0:
            runner.run("checkpoint", tree.checkpoint)
        return [f"cycle {i}: {e}" for e in errors]

    def _check(self, q, knn, rq, rng) -> list[str]:
        """Compare this cycle's answers with a scan of the live objects."""
        from repro.baselines.linear import LinearScan

        data, tree = self.data, self.tree
        t0 = time.perf_counter()
        scan = LinearScan(self.live, data["metric"])
        want_range = scan.range_query(rq, data["radius"])
        before = _counters(tree)
        count = tree.range_count(rq, data["radius"])
        after = _counters(tree)
        self.oracle_counts = tuple(
            o + a - b for o, a, b in zip(self.oracle_counts, after, before)
        )
        errors = [
            oracle.exact_knn(knn, scan.knn_query(q, K)),
            oracle.exact_range(rng, want_range, key),
            oracle.exact_count(count, len(want_range)),
        ]
        self.oracle_s += time.perf_counter() - t0
        return [e for e in errors if e]


def _churn_pass(churn: _Churn, runner: _Ops, checks: set, cycles: int) -> tuple[tuple[int, int], list[str]]:
    """The first ``cycles`` cycles from a flushed pool; their counters,
    without the oracle's own call."""
    tree = churn.tree
    tree.flush_cache(reset_stats=True)
    tree.reset_counters()
    errors: list[str] = []
    for i in range(cycles):
        errors += churn.cycle(i, runner, i in checks)
    counted = tuple(c - o for c, o in zip(_counters(tree), churn.oracle_counts))
    return counted, errors


def churn_color(seed: int, seconds: float, trace: bool, work: str, cache: str | None = None) -> dict:
    tail_p = TAIL_PERCENTILE
    estimate = color_estimate(seed, cache)
    if trace:
        checks = set(random.Random(seed + 1).sample(range(CHURN_TRACED), ORACLE_SAMPLE))
        return _churn_color_traced(churn_data(seed, estimate), work, checks)
    checks = set(random.Random(seed + 1).sample(range(CHURN_PASS), ORACLE_SAMPLE))

    pace = common.Pace()
    setups, raw_setups, churn = [], [], None
    for n in range(SETUPS):
        if churn is not None:
            churn.close()
            churn = None
        directory = os.path.join(work, f"churn-{n}")
        churn, scaled, raw = _timed_setup(
            pace, lambda: _Churn(churn_data(seed, estimate), directory)
        )
        setups.append(scaled)
        raw_setups.append(raw)
    # Write back what the set-ups wrote and deleted now, not in the
    # background of the measured loop, where it would slow its fsyncs.
    os.sync()
    try:
        runner = _Ops(pace)
        t0 = time.perf_counter()
        first, errors = _churn_pass(churn, runner, checks, CHURN_PASS)
        bytes_per_object = churn.tree.size_in_bytes / churn.tree.object_count
        cycles = CHURN_PASS
        while time.perf_counter() - t0 - churn.oracle_s < seconds:
            errors += churn.cycle(cycles, runner, False)
            cycles += 1
        size = len(churn.data["base"])
        if len(churn.tree) != size:
            errors.append(f"tree holds {len(churn.tree)} objects, expected {size}")
        ckpt = runner.scaled_ms("checkpoint")
        ops = 4 * CHURN_PASS
        metrics = {
            "setup_s": common.median(setups),
            # A churn insert is mostly its WAL fsync, whose speed the CPU
            # reference kernel does not track: scaling it by the kernel
            # made its run-to-run spread larger, not smaller.
            **_latency_metrics(runner, tail_p, unscaled=("insert",)),
            "ops_per_s": runner.count / runner.scaled_total(),
            "compdists_per_query": first[0] / ops,
            "pa_per_query": first[1] / ops,
            "peak_rss_mb": common.peak_rss_mb(),
            "bytes_per_object": bytes_per_object,
        }
        return {
            "correct": not errors,
            "errors": errors,
            "attempted": runner.count,
            "failed": 0,
            "metrics": metrics,
            "detail": {
                "setups_s_raw": raw_setups,
                "setups_s_scaled": setups,
                "cycles": cycles,
                "counted": {"compdists": first[0], "pa": first[1], "ops": ops},
                "raw_latency_ms": _raw_detail(runner, tail_p),
                "checkpoint_ms_median": common.median(ckpt) if ckpt else None,
                "pace_probes": len(pace.samples),
                "oracle_checked": len(checks),
                "oracle_s": churn.oracle_s,
            },
        }
    finally:
        churn.close()


def _churn_color_traced(data, work, checks) -> dict:
    from repro.distance import MinkowskiDistance

    pace = common.Pace()
    churn = _Churn(data, os.path.join(work, "churn-plain"))
    try:
        plain = _Ops(pace)
        untraced, errors = _churn_pass(churn, plain, checks, CHURN_TRACED)
    finally:
        churn.close()

    churn = _Churn(data, os.path.join(work, "churn-traced"))
    tracer = Tracer()
    install(tracer, MinkowskiDistance, [churn.tree.curve], serving=False)
    try:
        runner = _Ops(pace, tracer)
        wrote = common.bytes_written()
        traced, errs = _churn_pass(churn, runner, checks, CHURN_TRACED)
        wrote = common.bytes_written() - wrote if wrote is not None else 0
        pool = churn.tree.raf.buffer_pool
        hits, misses = pool.hits, pool.misses
        user_bytes = churn.user_bytes
    finally:
        tracer.unpatch()
        churn.close()
    errors += errs
    if traced != untraced:
        errors.append(f"traced pass counted {traced}, untraced {untraced}")
    ckpt = runner.scaled_ms("checkpoint")
    return _traced_result(
        tracer, runner, errors,
        {
            "pool_hits": hits,
            "pool_misses": misses,
            "mutations": 2 * CHURN_TRACED,
            "inserts": CHURN_TRACED,
            "write_amp": wrote / user_bytes if user_bytes else 0.0,
            "checkpoint_ms": common.median(ckpt) if ckpt else 0.0,
            "overhead_ratio": runner.scaled_total() / plain.scaled_total(),
        },
        {"untraced_counters": untraced, "traced_counters": traced},
    )
