"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q

The fidelity tests at the end build small trees with the program from
``src/``.
"""

from __future__ import annotations

import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import common  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402


# ------------------------------------------------------------- tail choice


@pytest.mark.parametrize(
    "samples, expected",
    [
        (10_000, 99.9),  # 10 beyond p99.9
        (9_999, 99.0),
        (1_000, 99.0),
        (200, 95.0),
        (100, 90.0),  # exactly 10 beyond p90
        (99, 80.0),
        (49, 75.0),
        (39, 70.0),
        (33, 60.0),
        (25, 60.0),
        (24, 50.0),
        (5, 50.0),  # too few for any tail: the median
        (0, 50.0),
    ],
)
def test_tail_percentile_leaves_ten_samples_beyond(samples, expected):
    p = common.tail_percentile(samples)
    assert p == expected
    if samples >= 20:
        assert common.samples_beyond(samples, p) >= common.TAIL_BEYOND - 1e-9


def test_tail_percentile_rejects_negative_counts():
    with pytest.raises(ValueError):
        common.tail_percentile(-1)


def test_percentile_interpolates_and_sorts_failures_last():
    assert common.percentile([1, 2, 3, 4], 50.0) == 2.5
    assert common.percentile([5.0], 90.0) == 5.0
    assert common.percentile([1, 2, math.inf], 50.0) == 2
    assert common.percentile([1, 2, math.inf], 99.0) == math.inf


# ---------------------------------------------------------------- self time


def _self(spans):
    """spans: (sid, parent, start, end) -> {sid: self time}."""
    sid = [s[0] for s in spans]
    out, _ = self_times(
        [s[2] for s in spans], [s[3] for s in spans], sid, [s[1] for s in spans]
    )
    return dict(zip(sid, out.tolist()))


def test_self_time_subtracts_direct_children_only():
    got = _self([
        (1, 0, 0.0, 10.0),  # root
        (2, 1, 1.0, 4.0),  # child
        (3, 2, 2.0, 3.0),  # grandchild: inside the child, not the root
        (4, 1, 6.0, 7.0),  # second child
    ])
    assert got[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert got[2] == pytest.approx(3.0 - 1.0)
    assert got[3] == pytest.approx(1.0)
    assert got[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # Two children on other threads overlap on [3, 5]; a third starts
    # inside the first and ends inside it.
    got = _self([
        (1, 0, 0.0, 10.0),
        (2, 1, 1.0, 5.0),
        (3, 1, 3.0, 8.0),
        (4, 1, 2.0, 4.0),
    ])
    assert got[1] == pytest.approx(10.0 - 7.0)  # union [1, 8]


def test_self_time_clips_children_to_the_parent():
    got = _self([(1, 0, 0.0, 10.0), (2, 1, 8.0, 12.0), (3, 1, -1.0, 1.0)])
    assert got[1] == pytest.approx(10.0 - 2.0 - 1.0)


def test_self_time_of_disjoint_parents_is_independent():
    got = _self([
        (1, 0, 0.0, 4.0), (2, 1, 1.0, 3.0),
        (5, 0, 2.0, 9.0), (6, 5, 2.5, 8.5), (7, 5, 3.0, 4.0),
    ])
    assert got[1] == pytest.approx(2.0)
    assert got[5] == pytest.approx(7.0 - 6.0)


class _Box:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_tracer_records_nested_calls_and_restores_originals():
    tracer = Tracer()
    original = _Box.__dict__["inner"]
    tracer.patch(_Box, "outer", "a.outer")
    tracer.patch(_Box, "inner", "b.inner")
    box = _Box()
    assert box.outer(1) == 3  # outside a request: not recorded
    with tracer.root("op.x"):
        assert box.outer(2) == 5
    tracer.unpatch()
    assert _Box.__dict__["inner"] is original
    summary = summarize(tracer.arrays())
    assert summary["calls"] == {"a.outer": 1, "b.inner": 1, "op.x": 1}
    assert summary["roots"] == {"op.x": 1}
    assert summary["children_of"] == {"a<op.x": 1, "b<a.outer": 1}


class _Job:
    def run(self, context):
        return context


def test_detached_span_adopts_calls_on_other_threads():
    tracer = Tracer()
    tracer.patch(_Job, "run", "b.run")
    try:
        token, context = object(), object()
        tracer.open_detached("service.x", token, (context,))
        # The worker's span stack is empty; the context argument links it.
        t = threading.Thread(target=_Job().run, args=(context,))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        _Job().run(object())  # an unlinked argument: not recorded
        tracer.close_detached(token)
    finally:
        tracer.unpatch()
    summary = summarize(tracer.arrays())
    assert summary["roots"] == {"service.x": 1}
    assert summary["children_of"] == {"b<service.x": 1}


def test_pace_scales_durations_by_the_kernel_time_near_them():
    pace = common.Pace(window=1.0)
    pace.samples = [(0.0, 3.0), (0.5, 6.0), (10.0, 1.5), (10.4, 1.5)]
    # Near [0.1, 0.3] the kernel took median(3, 6) = 4.5 ms: a slow box.
    assert pace.scale(0.1, 0.3) == pytest.approx(0.2 * common.Pace.REF_MS / 4.5)
    # Near t=10 it ran twice as fast as nominal.
    assert pace.scale(10.2, 10.7) == pytest.approx(0.5 * 2.0)
    # Far from every probe, the nearest one counts.
    assert pace.factor(5.0, 5.0) == pytest.approx(common.Pace.REF_MS / 6.0)


# ------------------------------------------------------------------ oracles


def _within(q, r):
    return lambda o: abs(o - q) <= r


def test_grown_range_accepts_base_hits_plus_inserted_hits():
    assert oracle.grown_range([1, 2, 7], [1, 2], {7}, _within(3, 4), int) is None


def test_grown_range_rejects_a_missing_base_hit():
    assert "misses" in oracle.grown_range([1], [1, 2], set(), _within(1, 5), int)


def test_grown_range_rejects_an_extra_that_was_never_inserted():
    assert "neither" in oracle.grown_range([1, 2, 9], [1, 2], {7}, _within(3, 9), int)


def test_grown_range_rejects_an_inserted_object_beyond_the_radius():
    assert "beyond" in oracle.grown_range([1, 2, 7], [1, 2], {7}, _within(1, 2), int)


def test_grown_knn_accepts_closer_inserted_neighbours():
    base = [(1.0, 11), (2.0, 12)]
    got = [(0.5, 20), (1.0, 11)]
    dist = {11: 1.0, 12: 2.0, 20: 0.5}
    assert oracle.grown_knn(got, base, dist.__contains__, dist.get) is None


def test_grown_knn_rejects_worse_distances_wrong_distances_and_strangers():
    base = [(1.0, 11), (2.0, 12)]
    dist = {11: 1.0, 12: 2.0, 13: 3.0, 20: 0.5}
    known = lambda o: o in dist  # noqa: E731
    assert "base answer" in oracle.grown_knn([(1.0, 11), (3.0, 13)], base, known, dist.get)
    assert "metric gives" in oracle.grown_knn([(0.7, 20), (1.0, 11)], base, known, dist.get)
    assert "not a stored" in oracle.grown_knn([(0.5, 99), (1.0, 11)], base, known, lambda o: 0.5)
    assert "neighbours" in oracle.grown_knn([(1.0, 11)], base, known, dist.get)


def test_grown_count_bounds():
    assert oracle.grown_count(5, 4, 2) is None
    assert oracle.grown_count(3, 4, 2) is not None
    assert oracle.grown_count(7, 4, 2) is not None


def test_exact_checks():
    assert oracle.exact_knn([(1.0, "a"), (2.0, "b")], [(1.0, "x"), (2.0, "y")]) is None
    assert oracle.exact_knn([(1.5, "a")], [(1.0, "a")]) is not None
    assert oracle.exact_range(["a", "b"], ["b", "a"], str) is None
    assert oracle.exact_range(["a"], ["a", "a"], str) is not None
    assert oracle.exact_count(3, 3) is None and oracle.exact_count(2, 3)


# ---------------------------------------------------------- due-time timing


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, s: float) -> None:
        self.now += s


def test_due_time_latency_charges_a_stall_to_the_requests_behind_it():
    clock = _FakeClock()
    service = {0: 0.01, 1: 0.35, 2: 0.01, 3: 0.01, 4: 0.01}  # op 1 stalls

    def call(op, item):
        clock.now += service[item]
        return loadgen.OK, None

    schedule = [(0.1 * i, "knn", i) for i in range(5)]
    samples = loadgen.run_schedule(schedule, call, clock=clock, sleep=clock.sleep)
    lat = [s.latency_ms for s in samples]
    late = [s.late_ms for s in samples]
    sent_based = [(s.done - s.sent) * 1000 for s in samples]
    assert lat[1] == pytest.approx(350.0)
    # Op 2 was due at 0.2 s but could only be sent at 0.45 s.
    assert late[2] == pytest.approx(250.0)
    assert lat[2] == pytest.approx(260.0)
    assert sent_based[2] == pytest.approx(10.0)  # what a send-time clock reports
    assert lat[3] == pytest.approx(170.0)
    assert lat[4] == pytest.approx(80.0)
    verdict = loadgen.rung_verdict(samples, limit_ms=250.0, tail_p=75.0)
    assert verdict["tail_ms"] == pytest.approx(260.0)
    assert not verdict["meets_limit"]


def test_failures_and_unsent_requests_miss_the_limit():
    clock = _FakeClock()

    def call(op, item):
        clock.now += 0.3 if item == 1 else 0.01
        return ("degraded:quorum", None) if item == 1 else (loadgen.OK, None)

    # Op 1 stalls past the give-up time, so ops 2 and 3 are never sent.
    schedule = [(0.1 * i, "knn", i) for i in range(4)]
    samples = loadgen.run_schedule(
        schedule, call, give_up_at=0.35, clock=clock, sleep=clock.sleep
    )
    assert [s.outcome for s in samples] == ["ok", "degraded:quorum", "unsent", "unsent"]
    assert samples[1].replied and not samples[3].replied
    assert samples[1].latency_ms == math.inf and samples[3].latency_ms == math.inf
    assert loadgen.rung_verdict(samples, 250.0, 50.0)["tail_ms"] == math.inf


def test_split_schedule_offers_the_rate_across_lanes():
    plans = loadgen.split_schedule([("knn", i) for i in range(6)], 10.0, 1.0, 2)
    assert [d for d, _, _ in plans[0]] == pytest.approx([1.0, 1.2, 1.4])
    assert [d for d, _, _ in plans[1]] == pytest.approx([1.1, 1.3, 1.5])


def test_served_mix_holds_one_insert_in_ten_and_cycles_every_query():
    import serve

    data = {"queries": list("abcd"), "fresh": [f"w{i}" for i in range(serve.PROBE_INSERTS + 6)]}
    ops = serve.op_list(data, 3, 50)
    assert len(ops) == 50
    for block in range(5):
        kinds = [op for op, _ in ops[10 * block:10 * block + 10]]
        assert sorted(kinds) == sorted(["insert"] + ["knn", "range", "count"] * 3)
    inserted = [item for op, item in ops if op == "insert"]
    assert inserted == data["fresh"][:5]  # the probe's words are not reused
    knn = [item for op, item in ops if op == "knn"]
    assert sorted(knn[:4]) == [0, 1, 2, 3] and sorted(knn[4:8]) == [0, 1, 2, 3]
    # The list ends when the fresh words run out.
    assert len(serve.op_list(data, 3, 1000)) == 60


def test_memo_reuses_a_stored_value_and_recomputes_for_a_new_key(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return 0.5 + len(calls)

    assert common.memo(str(tmp_path), "a", compute) == 1.5
    assert common.memo(str(tmp_path), "a", compute) == 1.5
    assert common.memo(str(tmp_path), "b", compute) == 2.5
    assert common.memo(None, "a", compute) == 3.5
    assert len(calls) == 3


def test_tree_digest_changes_with_any_source_file(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text("x = 1\n")
    before = common.tree_digest(str(tmp_path))
    (tmp_path / "pkg" / "m.py").write_text("x = 2\n")
    assert common.tree_digest(str(tmp_path)) != before


# ------------------------------------------------------------ fidelity pin


@pytest.fixture
def small_color(monkeypatch):
    import inputs

    monkeypatch.setattr(inputs, "COLOR_SIZE", 1500)
    monkeypatch.setattr(inputs, "COLOR_POOL", 150)
    monkeypatch.setattr(inputs, "COLOR_QUERIES", 120)
    data = inputs.color(5)
    return inputs.with_radius(data, "color", inputs.d_plus(data))


def test_benchmark_pass_counts_what_a_direct_tree_run_counts(small_color):
    import inproc

    data = small_color
    ops = inproc._tree_ops(data, 5)
    tree = inproc.build(data)
    counted = inproc._tree_pass(tree, data, ops, inproc._Ops(common.Pace()))

    direct = inproc.build(data)
    direct.flush_cache(reset_stats=True)
    direct.reset_counters()
    for kind, q in ops:
        if kind == "knn":
            direct.knn_query(q, 8)
        elif kind == "range":
            direct.range_query(q, data["radius"])
        else:
            direct.range_count(q, data["radius"])
    assert counted == (direct.distance_computations, direct.page_accesses)
    assert counted == inproc._tree_pass(tree, data, ops, inproc._Ops(common.Pace()))


def test_traced_pass_counts_the_same_as_an_untraced_one(small_color):
    import inproc
    from layers import install
    from repro.distance import MinkowskiDistance

    data = small_color
    ops = inproc._tree_ops(data, 5)
    tree = inproc.build(data)
    plain = inproc._tree_pass(tree, data, ops, inproc._Ops(common.Pace()))
    tracer = Tracer()
    install(tracer, MinkowskiDistance, [tree.curve], serving=False)
    try:
        traced = inproc._tree_pass(tree, data, ops, inproc._Ops(common.Pace(), tracer))
    finally:
        tracer.unpatch()
    assert traced == plain
    summary = summarize(tracer.arrays())
    assert summary["calls"]["distance"] == plain[0]
    assert sum(summary["roots"].values()) == len(ops)
    assert np.isclose(sum(summary["self_s"].values()), summary["root_s"])


def test_churn_runs_past_its_pool_of_fresh_objects(small_color, tmp_path):
    import inproc

    data = small_color
    churn = inproc._Churn(data, str(tmp_path / "churn"))
    try:
        runner = inproc._Ops(common.Pace())
        cycles = len(data["fresh"]) + 20
        errors = []
        for i in range(cycles):
            errors += churn.cycle(i, runner, check=i >= cycles - 3)
        assert errors == []
        assert len(churn.tree) == len(data["base"])
        assert len(runner.lat["insert"]) == cycles
    finally:
        churn.close()
