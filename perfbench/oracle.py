"""Answer checks.  Each returns None for a correct answer, else a message.

``exact_*`` compare with a linear scan of the live objects (the in-process
workloads know the live set at every moment).  ``grown_*`` are the checks
for a data set that only grows while it is queried: the answer is compared
with the linear-scan answer over the base objects, and anything beyond it
must be an inserted object that satisfies the query.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Callable, Hashable, Optional, Sequence

Key = Callable[[Any], Hashable]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def exact_knn(got: Sequence[tuple[float, Any]], want: Sequence[tuple[float, Any]]) -> Optional[str]:
    """kNN distance lists must agree (ties may pick different objects)."""
    gd = [d for d, _ in got]
    wd = [d for d, _ in want]
    if len(gd) != len(wd) or not all(_close(a, b) for a, b in zip(gd, wd)):
        return f"kNN distances {gd} != linear scan {wd}"
    return None


def exact_range(got: Sequence[Any], want: Sequence[Any], key: Key) -> Optional[str]:
    g, w = Counter(map(key, got)), Counter(map(key, want))
    if g != w:
        return (
            f"range answer differs from linear scan: {sum((g - w).values())} "
            f"extra, {sum((w - g).values())} missing"
        )
    return None


def exact_count(got: int, want: int) -> Optional[str]:
    if got != want:
        return f"count {got} != linear scan {want}"
    return None


def grown_range(
    got: Sequence[Any],
    base: Sequence[Any],
    inserted: set,
    within: Callable[[Any], bool],
    key: Key,
) -> Optional[str]:
    """A complete range answer over a grown set: a superset of the base
    answer whose extra hits are inserted objects within the radius."""
    g, b = Counter(map(key, got)), Counter(map(key, base))
    missing = b - g
    if missing:
        return f"range answer misses {sum(missing.values())} base hits"
    by_key = {key(o): o for o in got}
    for k in g - b:
        if k not in inserted:
            return f"range answer holds {k!r}, neither a base hit nor inserted"
        if not within(by_key[k]):
            return f"range answer holds inserted {k!r} beyond the radius"
    return None


def grown_knn(
    got: Sequence[tuple[float, Any]],
    base: Sequence[tuple[float, Any]],
    known: Callable[[Any], bool],
    distance: Callable[[Any], float],
) -> Optional[str]:
    """A complete kNN answer over a grown set: as long as the base answer,
    its i-th distance at most the base answer's i-th distance, and every
    reported distance the metric recomputed for a known object."""
    if len(got) != len(base):
        return f"kNN returned {len(got)} neighbours, base answer has {len(base)}"
    prev = -math.inf
    for i, ((d, obj), (bd, _)) in enumerate(zip(got, base)):
        if not known(obj):
            return f"kNN neighbour {i} {obj!r} is not a stored object"
        real = distance(obj)
        if not _close(d, real):
            return f"kNN neighbour {i} reported at {d}, metric gives {real}"
        if d > bd and not _close(d, bd):
            return f"kNN distance {i} is {d}, base answer has {bd}"
        if d < prev and not _close(d, prev):
            return f"kNN distances not ascending at {i}"
        prev = d
    return None


def grown_count(got: int, base: int, inserted_within: int) -> Optional[str]:
    if not base <= got <= base + inserted_within:
        return f"count {got} outside [{base}, {base + inserted_within}]"
    return None
