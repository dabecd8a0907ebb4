"""The ``serve-words`` workload: a replicated cluster served over TCP from
a child process (see ``server.py``), loaded by one client process with 2
threads on 2 connections.

The load is a seeded mix of 90% reads (kNN, range, count) and 10%
inserts of fresh words.  A run first sends the mix one request at a time
on one connection, each when the previous reply is back, for the read
latencies and ``ops_per_s``: the server is GIL-bound, so a second
connection would add its requests' wait to each latency but no
throughput.  Between the ops of that loop it times ``PROBE_INSERTS``
inserts of their own for the insert latency.  It then offers the mix
open-loop on both connections at each rate of ``LADDER``, timing each
request from when it was due, for the sustained rate.  The client
deadline and the latency limit are both 250 ms.
"""

from __future__ import annotations

import json
import os
import queue
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional

import common
import loadgen
import oracle
import inputs
from layers import DEGRADED_KINDS, per_layer
from spans import Tracer

HERE = Path(__file__).resolve().parent
LIMIT_MS = 250.0
SETUPS = 5  # server starts per untraced run; setup_s is their median
LANES = 2
READS = ("knn", "range", "count")
TAIL_PERCENTILE = 90.0  # leaves >= 10 of the >= 100 samples per op beyond it
CLOSED_SHARE = 0.7  # of --seconds in the closed loop; the rest in the ladder
LADDER = (16, 24, 32)  # open-loop offered rates (1/s), around capacity
RUNG_SHARE = (1 - CLOSED_SHARE) / len(LADDER)
TRACE_RATE = 16  # open-loop rate of the traced run
ORACLE_READS = 24  # seeded sample of reads whose replies are checked
WARMUP_OPS = 12
PROBE_INSERTS = 200  # inserts timed on their own, within the closed loop
PROBE_EVERY = 2  # closed-loop ops per probe insert


class Server:
    """A child process serving the cluster; see ``server.py``."""

    def __init__(self, seed: int, work: str, n: int, trace: bool, spans: Optional[str]):
        self.log_path = os.path.join(work, f"server-{n}.log")
        cmd = [
            sys.executable, str(HERE / "server.py"), "--seed", str(seed),
            "--dir", os.path.join(work, f"cluster-{n}"), "--trace", str(int(trace)),
        ]
        if spans:
            cmd += ["--spans", spans]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            cwd=str(HERE.parent), text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = int(self._expect("READY", 120.0))

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("PERFBENCH "):
                self._lines.put(line[len("PERFBENCH "):].rstrip("\n"))
        self._lines.put(None)

    def _expect(self, word: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.kill()
                with open(self.log_path, "r", errors="replace") as fh:
                    tail = fh.read()[-2000:]
                raise RuntimeError(f"server gave no {word}; log tail:\n{tail}")
            head, _, rest = line.partition(" ")
            if head == word:
                return rest

    def _send(self, cmd: str) -> None:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()

    def mark(self) -> None:
        self._send("MARK")
        self._expect("MARKED", 30.0)

    def stop(self) -> dict:
        try:
            self._send("STOP")
            stats = json.loads(self._expect("STATS", 60.0))
            self.proc.wait(timeout=30.0)
            return stats
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)
        self._log.close()


def op_list(data: dict, seed: int, n: int) -> list[tuple[str, Any]]:
    """Up to ``n`` seeded ops in blocks of ten: one insert of the next
    fresh word and three each of kNN, range and count, in a seeded order
    per block, so neither lane gets a fixed pattern.  Each read kind
    cycles through all the queries in its own seeded order.  The list
    ends early when the fresh words (less the insert probe's) run out."""
    rng = random.Random(seed)
    fresh = data["fresh"][:-PROBE_INSERTS]
    nq = len(data["queries"])
    order = {kind: rng.sample(range(nq), nq) for kind in READS}
    done = {kind: 0 for kind in READS}
    block = ("insert",) + READS * 3
    ops: list[tuple[str, Any]] = []
    while len(ops) < n and len(ops) // len(block) < len(fresh):
        for kind in rng.sample(block, len(block)):
            if kind == "insert":
                ops.append((kind, fresh[len(ops) // len(block)]))
            else:
                ops.append((kind, order[kind][done[kind] % nq]))
                done[kind] += 1
    return ops[:n]


def _kind(reason: Any) -> str:
    kind = getattr(reason, "kind", "unknown")
    return "budget" if kind in ("compdists", "page_accesses") else kind


def make_call(client, data: dict, tracer: Optional[Tracer]) -> Callable:
    from repro.net import NetError, RetryLater

    radius = data["radius"]
    queries = data["queries"]

    def call(op: str, item: Any) -> tuple[str, Any]:
        try:
            if op == "insert":
                return (loadgen.OK if client.insert(item) else "error"), None
            q = queries[item]
            if op == "knn":
                reply = client.knn_query(q, inputs.K)
            elif op == "range":
                reply = client.range_query(q, radius)
            else:
                reply = client.range_count(q, radius)
        except RetryLater:
            return "refused", None
        except (NetError, OSError) as exc:
            return "error", repr(exc)
        if not reply.complete:
            return f"degraded:{_kind(reply.reason)}", reply
        return loadgen.OK, reply

    if tracer is None:
        return call

    def traced(op: str, item: Any) -> tuple[str, Any]:
        with tracer.root(f"net.{op}"):
            return call(op, item)

    return traced


def _clients(port: int, seed: int):
    from repro.net import NetClient, RetryPolicy

    return [
        NetClient(
            "127.0.0.1", port, deadline_ms=LIMIT_MS,
            retry=RetryPolicy(attempts=3, base_delay=0.02, jitter=0.5, seed=seed + i),
        )
        for i in range(LANES)
    ]


def _warm_up(clients, data) -> None:
    for i in range(WARMUP_OPS):
        op = READS[i % 3]
        make_call(clients[i % LANES], data, None)(op, inputs.WORDS_QUERIES - 1 - i)


def _rung(clients, data, ops, rate, tracer=None) -> list[loadgen.Sample]:
    start = time.perf_counter() + 0.05
    plans = loadgen.split_schedule(ops, rate, start, LANES)
    calls = [make_call(c, data, tracer) for c in clients]
    give_up = start + len(ops) / rate + 2.0
    return loadgen.run_lanes(plans, calls, give_up)


def _closed_loop(client, data, ops, probes, seconds, pace) -> tuple[list, list]:
    """Send ``ops`` one at a time on one connection, each when the previous
    reply is back, until ``seconds`` have passed or the ops run out, with
    one of the ``probes`` after every ``PROBE_EVERY`` ops, so the probes
    are timed across the loop; the box's pace is probed between requests
    (see ``common.Pace``).  The samples of the ops and of the probes."""
    call = make_call(client, data, None)
    out: tuple[list, list] = ([], [])
    end = time.perf_counter() + seconds
    for i, (op, item) in enumerate(ops):
        if time.perf_counter() >= end:
            break
        todo = [(0, op, item)]
        if i % PROBE_EVERY == PROBE_EVERY - 1 and len(out[1]) < len(probes):
            todo.append((1, *probes[len(out[1])]))
        for which, op, item in todo:
            pace.maybe()
            t0 = time.perf_counter()
            outcome, reply = call(op, item)
            out[which].append(loadgen.Sample(op, item, t0, t0, time.perf_counter(), outcome, reply))
    return out


def _scaled_ms(pace, s: loadgen.Sample) -> float:
    return pace.scale(s.due, s.done) * 1e3


def _check(samples, data, seed) -> list[str]:
    """The insert-only oracle over a seeded sample of the complete reads."""
    from repro.baselines.linear import LinearScan

    metric, radius = data["metric"], data["radius"]
    base_set = set(data["base"])
    inserted = {s.item for s in samples if s.op == "insert" and s.outcome != loadgen.UNSENT}
    reads = [s for s in samples if s.op != "insert"]
    picks = random.Random(seed + 2).sample(reads, min(ORACLE_READS, len(reads)))
    scan = LinearScan(data["base"], metric)
    errors = []
    for s in picks:
        if s.outcome != loadgen.OK:
            continue
        q = data["queries"][s.item]
        within = lambda o, q=q: metric(q, o) <= radius  # noqa: E731
        if s.op == "range":
            err = oracle.grown_range(
                s.reply.items, scan.range_query(q, radius), inserted, within, str
            )
        elif s.op == "knn":
            err = oracle.grown_knn(
                s.reply.items, scan.knn_query(q, inputs.K),
                lambda o: o in base_set or o in inserted,
                lambda o, q=q: metric(q, o),
            )
        else:
            err = oracle.grown_count(
                s.reply.count, len(scan.range_query(q, radius)),
                sum(1 for o in inserted if within(o)),
            )
        if err:
            errors.append(f"{s.op} on query {s.item}: {err}")
    return errors


def _degraded(samples) -> dict:
    """Degraded replies by ExhaustionReason kind."""
    out = {k: 0 for k in DEGRADED_KINDS}
    for s in samples:
        if s.outcome.startswith("degraded:"):
            kind = s.outcome.split(":", 1)[1]
            out[kind] = out.get(kind, 0) + 1
    return out


def _tally(samples) -> dict:
    out: dict[str, int] = {}
    for s in samples:
        out[s.outcome] = out.get(s.outcome, 0) + 1
    return out


def _data(seed: int) -> dict:
    data = inputs.words(seed)
    return inputs.with_radius(data, "words", inputs.d_plus(data))


def serve_words(seed: int, seconds: float, trace: bool, work: str, spans: str) -> dict:
    data = _data(seed)
    if trace:
        return _serve_traced(seed, seconds, work, data, spans + "-server.npz")
    tail_p = TAIL_PERCENTILE
    closed_s = seconds * CLOSED_SHARE
    rung_ops = [max(LANES, round(rate * seconds * RUNG_SHARE)) for rate in LADDER]
    # Enough ops for the closed loop at ten times this box's rate.
    ops = op_list(data, seed, round(300 * closed_s) + sum(rung_ops))
    inserts = [("insert", word) for word in data["fresh"][-PROBE_INSERTS:]]

    pace = common.Pace()
    setups, raw_setups = [], []
    server = None
    try:
        for n in range(SETUPS):
            pace.probe(common.SETUP_PROBES)
            t0 = time.perf_counter()
            server = Server(seed, work, n, False, None)
            t1 = time.perf_counter()
            pace.probe(common.SETUP_PROBES)
            setups.append(pace.scale(t0, t1))
            raw_setups.append(t1 - t0)
            if n < SETUPS - 1:
                server.stop()
        clients = _clients(server.port, seed)
        _warm_up(clients, data)
        server.mark()
        closed, probe = _closed_loop(clients[0], data, ops, inserts, closed_s, pace)
        rungs, ladder_samples, at = [], [], len(closed)
        for rate, n in zip(LADDER, rung_ops):
            samples = _rung(clients, data, ops[at:at + n], rate)
            at += n
            verdict = loadgen.rung_verdict(samples, LIMIT_MS, tail_p)
            rungs.append({"rate": rate, **verdict, "outcomes": _tally(samples)})
            ladder_samples += samples
        retries = sum(c.retries for c in clients)
        for c in clients:
            c.close()
        stats = server.stop()
    finally:
        if server is not None:
            server.kill()

    errors = _check(probe + closed + ladder_samples, data, seed)
    # Latency per op type: kNN, range and count from the closed loop,
    # insert from the probe, over every request that got a reply (a
    # degraded one too; it also counts as failed).  In the ladder, above
    # capacity, deadline misses and unsent requests are what overload
    # means; other failures count as failed there too.
    lat: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for name, samples in (("insert", probe), ("", closed)):
        for s in samples:
            if s.replied:
                op = name or ("insert_closed_loop" if s.op == "insert" else s.op)
                lat.setdefault(op, []).append(_scaled_ms(pace, s))
                raw.setdefault(op, []).append(s.reply_ms)
    failed = sum(s.outcome != loadgen.OK for s in probe + closed)
    failed += sum(
        s.outcome not in (loadgen.OK, loadgen.UNSENT, "degraded:deadline")
        for s in ladder_samples
    )
    sustained = 0.0
    for rung in rungs:
        if not rung["meets_limit"]:
            break
        sustained = rung["rate"]
    delta = stats["delta"]
    served = max(1, delta["served"])
    closed_scaled = sum(pace.scale(s.sent, s.done) for s in closed)
    metrics = {"setup_s": common.median(setups)}
    for kind in ("knn", "range", "insert"):
        metrics[f"{kind}_p50_ms"] = common.percentile(lat[kind], 50.0)
        metrics[f"{kind}_tail_ms"] = common.percentile(lat[kind], tail_p)
    metrics.update(
        ops_per_s=len(closed) / closed_scaled,
        compdists_per_query=delta["compdists"] / served,
        pa_per_query=delta["pa"] / served,
        peak_rss_mb=stats["peak_rss_mb"],
        bytes_per_object=stats["size_in_bytes"] / stats["objects"],
    )
    attempted = len(probe) + len(closed) + len(ladder_samples)
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "setups_s_raw": raw_setups,
            "setups_s_scaled": setups,
            "closed_loop": {
                "ops": len(closed),
                "ops_per_s_raw": len(closed) / sum(s.done - s.sent for s in closed),
                "outcomes": _tally(closed),
            },
            "insert_probe_outcomes": _tally(probe),
            "rungs": rungs,
            "sustained_qps": sustained,
            "raw_latency_ms": {k: common.latency_summary(v, tail_p) for k, v in raw.items()},
            "pace_probes": len(pace.samples),
            "failed_share": failed / attempted,
            "degraded_by_reason": _degraded(probe + closed + ladder_samples),
            "late_p99_ms": common.percentile([s.late_ms for s in ladder_samples], 99.0),
            "client_retries": retries,
            "server": {k: v for k, v in stats.items() if k != "summary"},
        },
    }


def _serve_traced(seed, seconds, work, data, spans_path) -> dict:
    """An untraced and a traced server, each offered the open-loop mix at
    ``TRACE_RATE`` for half the run; per-layer metrics come from the
    traced one."""
    n = max(LANES, round(TRACE_RATE * seconds / 2))
    ops = op_list(data, seed, n)
    phases = []
    for traced in (False, True):
        server = Server(seed, work, int(traced), traced, spans_path if traced else None)
        try:
            clients = _clients(server.port, seed)
            _warm_up(clients, data)
            server.mark()
            tracer = Tracer() if traced else None
            samples = _rung(clients, data, ops, TRACE_RATE, tracer)
            retries = sum(c.retries for c in clients)
            for c in clients:
                c.close()
            stats = server.stop()
        finally:
            server.kill()
        phases.append((samples, stats, tracer, retries))

    (plain, _, _, _), (samples, stats, tracer, retries) = phases
    errors = _check(plain, data, seed) + _check(samples, data, seed)
    summary = stats["summary"]
    delta = stats["delta"]
    roots = summary["roots"]
    ops_served = sum(roots.values())
    service_s = sum(v for k, v in summary["dur_s"].items() if k.startswith("service."))
    client = tracer.arrays()
    client_s = float((client["end"] - client["start"]).sum())
    inserts = [s for s in samples if s.op == "insert" and s.outcome != loadgen.UNSENT]
    user_bytes = sum(len(s.item.encode("utf-8")) for s in inserts)
    ok_plain = [s.reply_ms for s in plain if s.outcome == loadgen.OK]
    ok_traced = [s.reply_ms for s in samples if s.outcome == loadgen.OK]
    extra = {
        "ops": ops_served,
        "mutations": len(inserts),
        "inserts": len(inserts),
        "pool_hits": delta["pool_hits"],
        "pool_misses": delta["pool_misses"],
        "write_amp": delta["wchar"] / user_bytes if user_bytes else 0.0,
        "rejected_share": delta["rejected"] / max(1, delta["requests"]),
        "engine_retries": delta["retries"] / max(1, ops_served),
        "net_overhead_ms": (
            client_s / max(1, len(client["sid"])) - service_s / max(1, ops_served)
        ) * 1e3,
        "client_retries": retries / max(1, len(samples)),
        "degraded_by_reason": _degraded(samples),
        "late_p99_ms": common.percentile([s.late_ms for s in samples], 99.0),
        "overhead_ratio": (
            common.median(ok_traced) / common.median(ok_plain) if ok_plain and ok_traced else 0.0
        ),
    }
    failed = sum(s.outcome != loadgen.OK for s in plain + samples)
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": len(plain) + len(samples),
        "failed": failed,
        "metrics": per_layer(summary, extra),
        "detail": {
            "trace_rate": TRACE_RATE,
            "outcomes_untraced": _tally(plain),
            "outcomes_traced": _tally(samples),
            "spans": stats.get("spans"),
            "roots": roots,
            "server": {k: v for k, v in stats.items() if k != "summary"},
        },
        "tracer": tracer,
    }
