"""Golden paper counters: answers, compdists and PA pinned across commits.

The paper's figures are counts, not times: every query's distance
computations (compdists) and page accesses (PA), measured from a flushed
buffer pool.  ``tests/data/paper_counters.json`` records the answer and
both counters for a fixed set of queries against the small words and small
vectors fixtures: SPB-tree range, count and kNN (incremental and greedy),
each plain and with an unlimited :class:`QueryContext`; range and count
with each ablation switch off; and a 2-shard :class:`ShardedIndex` (range,
count, best-first and broadcast kNN, plain and with a context).  A change
that moves any of them changes what the paper experiments report.

Regenerate the file (only when a counter change is intended and
explained) with::

    PYTHONPATH=src python tests/test_paper_counters.py --regen
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster import ShardedIndex
from repro.core.spbtree import SPBTree
from repro.datasets import generate_words
from repro.distance import EditDistance, EuclideanDistance
from repro.service import QueryContext, QueryResult

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "paper_counters.json")

#: Query object indexes and radii per dataset.
QUERIES = (3, 77, 150, 333)
RADII = {"words": (1, 2, 3), "vectors": (0.3, 0.6, 1.2)}
KS = (1, 8)
#: Every 16th object is deleted before querying, so tombstones are walked.
DELETE_EVERY = 16


def _words() -> list:
    # The ``small_words`` fixture of conftest.py.
    return generate_words(400, seed=99)


def _vectors() -> list:
    # The ``small_vectors`` fixture of conftest.py.
    rng = np.random.default_rng(1234)
    centers = rng.normal(size=(5, 4))
    return [centers[i % 5] + rng.normal(scale=0.3, size=4) for i in range(400)]


def _dataset(name: str):
    if name == "words":
        return _words(), EditDistance()
    return _vectors(), EuclideanDistance()


def _build(name: str, shards: int = 0):
    objects, metric = _dataset(name)
    if shards:
        index = ShardedIndex.build(
            objects, metric, shards=shards, num_pivots=3, seed=1
        )
    else:
        index = SPBTree.build(objects, metric, num_pivots=3, seed=1)
    for obj in objects[::DELETE_EVERY]:
        assert index.delete(obj)
    if shards:
        # Warm the router's lazily-read shard MBBs, so every case costs
        # the same whichever case runs first.
        index.range_count(objects[0], 0.0)
    return index, objects, metric


def _answer(kind: str, out, query, metric) -> "list | int":
    """A JSON-stable form of a query answer."""
    if isinstance(out, QueryResult):
        out = out.count if kind == "count" else list(out.items)
    if kind == "count":
        return out
    if kind == "knn":  # (distance, object) pairs
        return [round(float(d), 9) for d, _ in out]
    return sorted(round(float(metric(query, obj)), 9) for obj in out)


def _measure(index, run, query, metric, context: bool) -> dict:
    index.flush_cache(reset_stats=True)
    index.reset_counters()
    ctx = QueryContext() if context else None
    kind, out = run(ctx)
    dc, pa = index.distance_computations, index.page_accesses
    if context:
        assert isinstance(out, QueryResult) and out.complete
        assert (ctx.compdists, ctx.page_accesses) == (dc, pa)
    else:
        assert not isinstance(out, QueryResult)
    return {"answer": _answer(kind, out, query, metric), "compdists": dc, "pa": pa}


def _tree_cases(name: str) -> dict:
    tree, objects, metric = _build(name)
    out = {}

    def case(key, kind, call, q, context=False):
        tag = "ctx" if context else "plain"
        out[f"{key}/{tag}"] = _measure(
            tree, lambda c: (kind, call(c)), q, metric, context
        )

    for qi in QUERIES:
        q = objects[qi]
        for r in RADII[name]:
            for ctx_on in (False, True):
                case(f"range/{qi}/{r}", "range",
                     lambda c: tree.range_query(q, r, context=c), q, ctx_on)
                case(f"count/{qi}/{r}", "count",
                     lambda c: tree.range_count(q, r, context=c), q, ctx_on)
            for flag in ("use_lemma2", "use_sfc_enumeration"):
                setattr(tree, flag, False)
                try:
                    case(f"range/{qi}/{r}/no-{flag}", "range",
                         lambda c: tree.range_query(q, r), q)
                    case(f"count/{qi}/{r}/no-{flag}", "count",
                         lambda c: tree.range_count(q, r), q)
                finally:
                    setattr(tree, flag, True)
        for k in KS:
            for trav in ("incremental", "greedy"):
                for ctx_on in (False, True):
                    case(f"knn-{trav}/{qi}/{k}", "knn",
                         lambda c: tree.knn_query(q, k, traversal=trav, context=c),
                         q, ctx_on)
    return out


def _cluster_cases(name: str) -> dict:
    cluster, objects, metric = _build(name, shards=2)
    out = {}

    def case(key, kind, call, q, context):
        tag = "ctx" if context else "plain"
        out[f"{key}/{tag}"] = _measure(
            cluster, lambda c: (kind, call(c)), q, metric, context
        )

    for qi in QUERIES:
        q = objects[qi]
        for ctx_on in (False, True):
            for r in RADII[name]:
                case(f"range/{qi}/{r}", "range",
                     lambda c: cluster.range_query(q, r, context=c), q, ctx_on)
                case(f"count/{qi}/{r}", "count",
                     lambda c: cluster.range_count(q, r, context=c), q, ctx_on)
            for k in KS:
                for strategy in ("best-first", "broadcast"):
                    case(f"knn-{strategy}/{qi}/{k}", "knn",
                         lambda c: cluster.knn_query(
                             q, k, context=c, strategy=strategy),
                         q, ctx_on)
    return out


GROUPS = {
    "tree-words": lambda: _tree_cases("words"),
    "tree-vectors": lambda: _tree_cases("vectors"),
    "cluster-words": lambda: _cluster_cases("words"),
    "cluster-vectors": lambda: _cluster_cases("vectors"),
}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_counters_match_golden(group, golden):
    measured = GROUPS[group]()
    expected = golden[group]
    assert sorted(measured) == sorted(expected)
    wrong = {
        case: (expected[case], got)
        for case, got in measured.items()
        if got != expected[case]
    }
    assert not wrong, f"{len(wrong)} cases moved, e.g. {sorted(wrong.items())[:3]}"


def test_plain_and_context_runs_agree(golden):
    """Within the golden file, a context changes no answer and no counter."""
    for group in golden.values():
        for case, rec in group.items():
            if case.endswith("/ctx"):
                assert group[case[: -len("ctx")] + "plain"] == rec, case


class TestStatShardCrediting:
    """A plain call made inside an activated outer context credits that
    context with exactly what the index counted."""

    @pytest.mark.parametrize("kind", ["tree", "cluster"])
    def test_plain_calls_credit_the_outer_context(self, kind):
        index, objects, _ = _build("words", shards=2 if kind == "cluster" else 0)
        q = objects[42]
        calls = (
            lambda: index.range_query(q, 2),
            lambda: index.knn_query(q, 5),
            lambda: index.range_count(q, 2),
        )
        for call in calls:
            index.flush_cache(reset_stats=True)
            outer = QueryContext()
            dc0, pa0 = index.distance_computations, index.page_accesses
            with outer.activate():
                out = call()
            assert not isinstance(out, QueryResult)
            assert outer.compdists == index.distance_computations - dc0 > 0
            assert outer.page_accesses == index.page_accesses - pa0 > 0


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/test_paper_counters.py --regen")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    data = {group: make() for group, make in sorted(GROUPS.items())}
    # One case per line, so a moved counter shows as a one-line diff.
    groups = []
    for group, cases in data.items():
        rows = ",\n".join(
            f"  {json.dumps(case)}: {json.dumps(cases[case], sort_keys=True)}"
            for case in sorted(cases)
        )
        groups.append(f" {json.dumps(group)}: {{\n{rows}\n }}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(groups) + "\n}\n")
    print(f"wrote {sum(len(g) for g in data.values())} cases to {GOLDEN}")
