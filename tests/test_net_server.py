"""End-to-end tests for the network front end (repro.net server+client)."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.spbtree import SPBTree
from repro.distance import EditDistance
from repro.net import (
    NetClient,
    NetError,
    RemoteError,
    RetryLater,
    RetryPolicy,
    protocol,
    serve_in_thread,
)
from repro.service import QueryEngine


@pytest.fixture(scope="module")
def word_tree(small_words):
    return SPBTree.build(small_words, EditDistance(), seed=7), small_words


@pytest.fixture()
def served(word_tree):
    """A started engine + server on an ephemeral port; torn down after."""
    tree, words = word_tree
    engine = QueryEngine(tree, workers=2, max_queue=8).start()
    handle = serve_in_thread(engine, "127.0.0.1", 0)
    try:
        yield handle, engine, tree, words
    finally:
        handle.stop(2.0)
        engine.stop()


class _SlowMetric(EditDistance):
    """Edit distance with a per-call stall (drives deadline degradation)."""

    def __init__(self, stall_s: float = 0.002) -> None:
        super().__init__()
        self.stall_s = stall_s

    def __call__(self, a, b):
        time.sleep(self.stall_s)
        return super().__call__(a, b)


class _GatedMetric(EditDistance):
    """Edit distance that blocks until the gate opens (fills queues)."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.gate.set()

    def __call__(self, a, b):
        self.gate.wait(30.0)
        return super().__call__(a, b)


class TestEndToEnd:
    def test_knn_matches_local(self, served):
        handle, _, tree, words = served
        with NetClient("127.0.0.1", handle.port) as client:
            result = client.knn_query(words[3], 5)
        assert result.complete
        local = tree.knn_query(words[3], 5)
        assert [d for d, _ in result] == [d for d, _ in local]
        assert sorted(o for _, o in result) == sorted(o for _, o in local)

    def test_range_and_count_match_local(self, served):
        handle, _, tree, words = served
        with NetClient("127.0.0.1", handle.port) as client:
            hits = client.range_query(words[5], 2.0)
            count = client.range_count(words[5], 2.0)
        local = tree.range_query(words[5], 2.0)
        assert sorted(hits) == sorted(local)
        assert count.count == len(local)

    def test_mutations_roundtrip(self, served):
        handle, _, tree, _ = served
        before = tree.object_count
        with NetClient("127.0.0.1", handle.port) as client:
            assert client.insert("zzzznetword") is True
            assert tree.object_count == before + 1
            assert client.delete("zzzznetword") is True
            assert tree.object_count == before
            # Deleting a missing object is an honest False, not an error.
            assert client.delete("zzzznetword") is False

    def test_one_connection_serves_many_requests(self, served):
        handle, _, _, words = served
        with NetClient("127.0.0.1", handle.port) as client:
            for i in range(10):
                assert client.knn_query(words[i], 3).complete

    def test_health_reports_engine_state(self, served):
        handle, engine, tree, words = served
        with NetClient("127.0.0.1", handle.port) as client:
            client.knn_query(words[0], 2)
            health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == engine.workers
        assert health["objects"] == tree.object_count
        assert health["served"] >= 1
        assert health["allowance_ms"] >= 0.0

    def test_metrics_op_returns_exposition(self, served):
        handle, _, _, _ = served
        with NetClient("127.0.0.1", handle.port) as client:
            text = client.metrics()
        assert isinstance(text, str)  # empty when obs is disabled


class TestDeadlinePropagation:
    def test_degraded_answer_arrives_before_client_gives_up(self, small_words):
        # Build and take the true answer on the plain metric; only the
        # served queries go through the stalling one.
        tree = SPBTree.build(small_words, EditDistance(), seed=7)
        true_d = [d for d, _ in tree.knn_query(small_words[3], 10)]
        tree.distance.metric = _SlowMetric(0.002)
        engine = QueryEngine(tree, workers=2).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        try:
            deadline_ms = 60.0
            with NetClient("127.0.0.1", handle.port) as client:
                t0 = time.monotonic()
                result = client.knn_query(
                    small_words[3], 10, deadline_ms=deadline_ms
                )
                elapsed_ms = (time.monotonic() - t0) * 1000.0
            # The slow metric cannot finish 10-NN over 400 words in 60ms,
            # so this must be an honest partial...
            assert not result.complete
            assert result.reason is not None
            assert result.reason.kind == "deadline"
            # ...that arrived around the deadline, not after the client's
            # socket timeout (deadline + grace) — i.e. the server answered
            # rather than letting the client time out.
            assert elapsed_ms < deadline_ms + 250.0
            # Degraded results are honest prefixes of the true answer.
            got = [d for d, _ in result]
            assert got == true_d[: len(got)]
        finally:
            handle.stop(2.0)
            engine.stop()

    def test_pre_tripped_deadline_answered_immediately(self, served):
        handle, _, _, words = served
        # The whole budget fits inside the network allowance: the server
        # must answer an empty honest partial rather than start work.
        with NetClient("127.0.0.1", handle.port) as client:
            result = client.knn_query(words[0], 5, deadline_ms=0.01)
        assert not result.complete
        assert result.reason.kind == "deadline"
        assert list(result) == []

    def test_deadline_survives_the_wire_for_fast_queries(self, served):
        handle, _, tree, words = served
        with NetClient("127.0.0.1", handle.port) as client:
            result = client.knn_query(words[1], 3, deadline_ms=5000.0)
        assert result.complete
        assert [d for d, _ in result] == [
            d for d, _ in tree.knn_query(words[1], 3)
        ]


class TestBackpressure:
    @staticmethod
    def _saturate(engine, words):
        """Deterministically fill the worker + every queue slot with
        gated queries, so the next submit must reject."""
        held = [engine.submit("knn", words[0], 2)]
        deadline = time.monotonic() + 5.0
        # Wait until the (single) worker has dequeued the first query and
        # is blocked inside the metric; the queue is then refillable to
        # exactly max_queue with nothing able to drain it.
        while engine.queue_depth > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert engine.queue_depth == 0, "worker never picked up the plug"
        for _ in range(engine._queue.maxsize):
            held.append(engine.submit("knn", words[0], 2))
        return held

    def test_retry_later_carries_hints(self, small_words):
        metric = _GatedMetric()
        tree = SPBTree.build(small_words, metric, seed=7)
        metric.gate.clear()
        engine = QueryEngine(tree, workers=1, max_queue=2).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        held = []
        try:
            held = self._saturate(engine, small_words)
            client = NetClient(
                "127.0.0.1", handle.port,
                retry=RetryPolicy(attempts=1),  # no retries: surface it
            )
            with client:
                with pytest.raises(RetryLater) as exc_info:
                    client.knn_query(small_words[1], 2)
            err = exc_info.value
            assert err.code == "RETRY_LATER"
            assert err.queue_depth is not None and err.queue_depth >= 1
            assert err.retry_after_ms is not None and err.retry_after_ms > 0
        finally:
            metric.gate.set()
            for pending in held:
                pending.result(timeout=30)
            handle.stop(2.0)
            engine.stop()

    def test_client_retries_reads_through_backpressure(self, small_words):
        metric = _GatedMetric()
        tree = SPBTree.build(small_words, metric, seed=7)
        metric.gate.clear()
        engine = QueryEngine(tree, workers=1, max_queue=2).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        held = []
        try:
            held = self._saturate(engine, small_words)
            # Open the gate shortly after the first rejection; the
            # client's backoff schedule must carry it to success.
            opener = threading.Timer(0.15, metric.gate.set)
            opener.start()
            client = NetClient(
                "127.0.0.1", handle.port,
                retry=RetryPolicy(attempts=8, base_delay=0.1, seed=3),
            )
            with client:
                result = client.knn_query(small_words[1], 2)
            assert result.complete
            assert client.retries >= 1
        finally:
            metric.gate.set()
            for pending in held:
                pending.result(timeout=30)
            handle.stop(2.0)
            engine.stop()


class TestRetryDiscipline:
    def _closed_port(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return port

    def test_reads_retry_on_connection_failure(self):
        client = NetClient(
            "127.0.0.1", self._closed_port(),
            connect_timeout=0.2,
            retry=RetryPolicy(attempts=3, base_delay=0.01, seed=1),
        )
        with pytest.raises((NetError, OSError)):
            client.knn_query("word", 2)
        assert client.retries == 2  # attempts - 1 backoff sleeps

    def test_mutations_never_retry(self):
        client = NetClient(
            "127.0.0.1", self._closed_port(),
            connect_timeout=0.2,
            retry=RetryPolicy(attempts=5, base_delay=0.01, seed=1),
        )
        with pytest.raises((NetError, OSError)):
            client.insert("word")
        assert client.retries == 0  # exactly one send attempt

    def test_backoff_schedule_is_seeded_and_bounded(self):
        policy = RetryPolicy(attempts=5, base_delay=0.05, max_delay=0.2,
                             jitter=0.5, seed=42)
        delays = policy.delays()
        assert delays == RetryPolicy(
            attempts=5, base_delay=0.05, max_delay=0.2, jitter=0.5, seed=42
        ).delays()
        assert len(delays) == 4
        # Jitter only shortens; the cap holds before jitter is applied.
        assert all(0 < d <= 0.2 for d in delays)


class TestHostileWire:
    def test_slow_loris_is_disconnected(self, word_tree):
        tree, _ = word_tree
        engine = QueryEngine(tree, workers=1).start()
        handle = serve_in_thread(
            engine, "127.0.0.1", 0, read_timeout=0.3
        )
        try:
            sock = socket.create_connection(("127.0.0.1", handle.port))
            sock.sendall(b"\x00")  # one byte of prefix, then silence
            sock.settimeout(5.0)
            t0 = time.monotonic()
            assert sock.recv(1024) == b""  # server hung up
            assert time.monotonic() - t0 < 4.0
            sock.close()
        finally:
            handle.stop(1.0)
            engine.stop()

    def test_oversized_length_prefix_refused(self, served):
        handle, _, _, _ = served
        sock = socket.create_connection(("127.0.0.1", handle.port))
        try:
            sock.sendall(protocol._PREFIX.pack(0xFFFFFFF0))
            sock.settimeout(5.0)
            # The server answers once with BAD_REQUEST, then hangs up —
            # it must never try to read (or allocate) the claimed 4 GB.
            prefix = sock.recv(protocol.PREFIX_SIZE)
            (length,) = protocol._PREFIX.unpack(prefix)
            payload = b""
            while len(payload) < length:
                chunk = sock.recv(length - len(payload))
                if not chunk:
                    break
                payload += chunk
            message, _ = protocol.decode_frame(prefix + payload)
            assert message["ok"] is False
            assert message["error"]["code"] == "BAD_REQUEST"
            assert sock.recv(1024) == b""
        finally:
            sock.close()

    def test_garbage_payload_gets_structured_error(self, served):
        handle, _, _, _ = served
        sock = socket.create_connection(("127.0.0.1", handle.port))
        try:
            sock.sendall(protocol._PREFIX.pack(9) + b"not json!")
            sock.settimeout(5.0)
            data = sock.recv(1 << 16)
            message, _ = protocol.decode_frame(data)
            assert message["error"]["code"] == "BAD_REQUEST"
        finally:
            sock.close()

    def test_unknown_op_is_bad_request_but_connection_survives(self, served):
        handle, _, _, words = served
        sock = socket.create_connection(("127.0.0.1", handle.port))
        try:
            sock.sendall(protocol.encode_frame(
                protocol.make_request(1, "knn", {"k": 2}) | {"op": "evil"}
            ))
            sock.settimeout(5.0)
            data = sock.recv(1 << 16)
            message, consumed = protocol.decode_frame(data)
            assert message["error"]["code"] == "BAD_REQUEST"
            # Schema errors are answerable; the connection stays usable.
            sock.sendall(protocol.encode_frame(protocol.make_request(
                2, "knn",
                {"query": protocol.obj_to_json(words[0]), "k": 2},
            )))
            data2 = sock.recv(1 << 16)
            message2, _ = protocol.decode_frame(data2)
            assert message2["ok"] is True
        finally:
            sock.close()


class TestDrain:
    def test_drain_aborts_inflight_to_honest_partials(self, small_words):
        metric = _GatedMetric()
        tree = SPBTree.build(small_words, metric, seed=7)
        metric.gate.clear()
        engine = QueryEngine(tree, workers=2).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        results = {}

        def query():
            with NetClient("127.0.0.1", handle.port, op_timeout=30.0) as c:
                results["result"] = c.knn_query(small_words[0], 4)

        worker = threading.Thread(target=query)
        try:
            worker.start()
            deadline = time.monotonic() + 5.0
            while not handle.server._inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.server._inflight, "query never reached the server"
            # Cancellation checkpoints live between metric calls, so open
            # the gate as the drain trips tokens: the query then observes
            # cancellation and returns a partial instead of finishing.
            opener = threading.Timer(0.7, metric.gate.set)
            opener.start()
            summary = handle.drain(deadline_s=0.5)
            worker.join(timeout=15.0)
            assert not worker.is_alive()
            assert summary["aborted"] >= 1
            result = results["result"]
            assert not result.complete
            assert result.reason.kind in ("cancelled", "deadline")
        finally:
            metric.gate.set()
            handle.stop(1.0)
            engine.stop()

    def test_draining_server_refuses_new_work(self, word_tree):
        tree, words = word_tree
        engine = QueryEngine(tree, workers=1).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        try:
            client = NetClient("127.0.0.1", handle.port,
                               retry=RetryPolicy(attempts=1))
            with client:
                assert client.knn_query(words[0], 2).complete
                # Flip draining without closing the live connection.
                handle.loop.call_soon_threadsafe(
                    setattr, handle.server, "_draining", True
                )
                time.sleep(0.05)
                with pytest.raises(RemoteError) as exc_info:
                    client.knn_query(words[0], 2)
                assert exc_info.value.code == "SHUTTING_DOWN"
        finally:
            handle.stop(1.0)
            engine.stop()

    def test_stopped_engine_maps_to_structured_code(self, word_tree):
        tree, words = word_tree
        engine = QueryEngine(tree, workers=1).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        try:
            engine.stop()
            client = NetClient("127.0.0.1", handle.port,
                               retry=RetryPolicy(attempts=1))
            with client:
                with pytest.raises(RemoteError) as exc_info:
                    client.knn_query(words[0], 2)
            assert exc_info.value.code == "ENGINE_STOPPED"
        finally:
            handle.stop(1.0)
