"""Seeded inputs of every workload, shared by the benchmark process and
the ``serve-words`` server process so both derive them from the seed.

The indexed objects of a workload are fixed (generator seed 42, the
harness default), so every run measures the same index.  ``--seed``
orders a pool generated with them (so it shares the data's clusters) and
splits it into queries and fresh objects to insert.  The program builds
its index in its default configuration (5 HFI pivots, its own d+
estimate); the range radius is a share of that same estimate, which
:func:`d_plus` computes with the program's estimator.
"""

from __future__ import annotations

import random

DATA_SEED = 42
COLOR_SIZE = 20_000
COLOR_QUERIES = 2_800
COLOR_POOL = 4_000
WORDS_SIZE = 4_000
WORDS_QUERIES = 48
WORDS_POOL = 2_000
NUM_PIVOTS = 5
K = 8


def d_plus(d: dict) -> float:
    """The d+ the program's build would estimate for the base objects."""
    return d["metric"].max_distance(d["base"])


def _split(seed: int, objs: list, size: int, queries: int, metric, fixed_queries: bool = False) -> dict:
    base, pool = objs[:size], list(objs[size:])
    rng = random.Random(seed)
    if fixed_queries:
        # The same queries every run, in a seeded order.
        query_set, fresh = pool[:queries], pool[queries:]
        rng.shuffle(query_set)
        rng.shuffle(fresh)
    else:
        rng.shuffle(pool)
        query_set, fresh = pool[:queries], pool[queries:]
    return {"seed": seed, "base": base, "queries": query_set, "fresh": fresh, "metric": metric}


def color(seed: int, queries: int | None = None, fixed_queries: bool = False) -> dict:
    """20 000 color histograms under L5 and ``queries`` (default
    ``COLOR_QUERIES``) of the pool as queries; the range radius (2.5% of
    d+) is set by :func:`with_radius`."""
    from repro.datasets.color import generate_color
    from repro.distance import MinkowskiDistance

    objs = generate_color(COLOR_SIZE + COLOR_POOL, seed=DATA_SEED)
    if queries is None:
        queries = COLOR_QUERIES
    return _split(seed, objs, COLOR_SIZE, queries, MinkowskiDistance(5), fixed_queries)


def words(seed: int) -> dict:
    """4 000 words under edit distance; ``bench-load``'s radius (8% of d+).

    A word's kNN cost varies several-fold from word to word, and a served
    run completes only ~100 reads of a kind, so the 48 queries are the
    same every run and each read kind cycles through all of them (the seed
    orders them): a run's median then does not hinge on which words the
    seed happened to draw.
    """
    from repro.datasets.words import generate_words
    from repro.distance import EditDistance

    objs = generate_words(WORDS_SIZE + WORDS_POOL, seed=DATA_SEED)
    return _split(seed, objs, WORDS_SIZE, WORDS_QUERIES, EditDistance(), fixed_queries=True)


RADIUS = {
    "color": lambda d_plus: 0.025 * d_plus,
    "words": lambda d_plus: max(1.0, round(0.08 * d_plus)),
}


def with_radius(d: dict, kind: str, estimate: float) -> dict:
    """Set ``d_plus`` and the range radius from the program's estimate."""
    d["d_plus"] = estimate
    d["radius"] = RADIUS[kind](estimate)
    return d
