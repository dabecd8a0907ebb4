"""Open-loop load generation timed from when each request was due.

Each connection gets its own schedule of due times and sends every request
at (or, when the previous reply came back late, after) its due time.  A
request's latency runs from its due time to its reply, so a stall also
charges the wait it imposes on the requests queued behind it; how late
the generator sent each request is recorded beside it.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from common import percentile

OK = "ok"
UNSENT = "unsent"


@dataclass
class Sample:
    op: str
    item: Any
    due: float
    sent: float
    done: float
    outcome: str  # "ok", "degraded:<kind>", "refused", "error", "unsent"
    reply: Any = None

    @property
    def latency_ms(self) -> float:
        """Due-to-reply time; infinite for a request that failed."""
        if self.outcome != OK:
            return math.inf
        return (self.done - self.due) * 1000.0

    @property
    def replied(self) -> bool:
        """A reply came back (complete or degraded)."""
        return self.outcome == OK or self.outcome.startswith("degraded:")

    @property
    def reply_ms(self) -> float:
        """Due-to-reply time of a request that got a reply."""
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return max(0.0, (self.sent - self.due) * 1000.0)


def run_schedule(
    schedule: Sequence[tuple[float, str, Any]],
    call: Callable[[str, Any], tuple[str, Any]],
    *,
    give_up_at: float = math.inf,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sample]:
    """Send ``(due, op, item)`` requests in order on one connection.

    ``call(op, item)`` returns ``(outcome, reply)``.  Requests still unsent
    at ``give_up_at`` are recorded as ``unsent`` (a failure) instead of
    being sent, so an overloaded rung cannot run on without bound.
    """
    out: list[Sample] = []
    for due, op, item in schedule:
        now = clock()
        if now >= give_up_at:
            out.append(Sample(op, item, due, now, now, UNSENT))
            continue
        if due > now:
            sleep(due - now)
        sent = clock()
        outcome, reply = call(op, item)
        out.append(Sample(op, item, due, sent, clock(), outcome, reply))
    return out


def split_schedule(
    ops: Sequence[tuple[str, Any]], rate: float, start: float, lanes: int
) -> list[list[tuple[float, str, Any]]]:
    """Spread ``ops`` at ``rate`` per second from ``start`` over ``lanes``
    connections, round robin, so the lanes together offer ``rate``."""
    interval = 1.0 / rate
    plans: list[list[tuple[float, str, Any]]] = [[] for _ in range(lanes)]
    for i, (op, item) in enumerate(ops):
        plans[i % lanes].append((start + i * interval, op, item))
    return plans


def run_lanes(
    plans: Sequence[Sequence[tuple[float, str, Any]]],
    calls: Sequence[Callable[[str, Any], tuple[str, Any]]],
    give_up_at: float,
) -> list[Sample]:
    """Run one schedule per connection on its own thread; all samples."""
    results: list[Optional[list[Sample]]] = [None] * len(plans)
    errors: list[BaseException] = []

    def lane(i: int) -> None:
        try:
            results[i] = run_schedule(plans[i], calls[i], give_up_at=give_up_at)
        except BaseException as exc:  # relayed to the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=lane, args=(i,), name=f"perfbench-lane-{i}")
        for i in range(len(plans))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return [s for r in results if r for s in r]


def rung_verdict(samples: Sequence[Sample], limit_ms: float, tail_p: float) -> dict:
    """Does a rung meet the latency limit without a growing backlog?

    Failed, refused, degraded and unsent requests count as infinitely slow.
    The backlog grows when the generator's median lateness over the last
    quarter of the rung exceeds that over the first quarter by more than
    half the limit.
    """
    ordered = sorted(samples, key=lambda s: s.due)
    lat = [s.latency_ms for s in ordered]
    tail = percentile(lat, tail_p)
    q = max(1, len(ordered) // 4)
    first = percentile([s.late_ms for s in ordered[:q]], 50.0)
    last = percentile([s.late_ms for s in ordered[-q:]], 50.0)
    growing = last - first > 0.5 * limit_ms
    return {
        "requests": len(ordered),
        "tail_ms": tail,
        "backlog_growth_ms": last - first,
        "meets_limit": tail <= limit_ms and not growing,
    }
