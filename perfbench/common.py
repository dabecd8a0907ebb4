"""Statistics, machine facts and small helpers shared by every workload.

Nothing here imports the program under test, so the helpers can be unit
tested on their own (``python3 -m pytest perfbench/tests``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Iterable, Optional, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Pace probes before and after each timed set-up: a set-up lasts seconds,
#: so its scale factor rests on these alone.
SETUP_PROBES = 4


def tail_percentile(samples: int, beyond: int = TAIL_BEYOND) -> float:
    """The highest candidate percentile that leaves at least ``beyond``
    samples above it when ``samples`` values are sorted.

    A percentile p leaves ``samples * (1 - p/100)`` values beyond it; the
    p50 fallback is returned even when fewer samples exist, so a caller
    always gets a number to compare against its fixed choice.
    """
    if samples < 0:
        raise ValueError("samples must be non-negative")
    for p in TAIL_CANDIDATES:
        if samples_beyond(samples, p) >= beyond - 1e-9:
            return p
    return TAIL_CANDIDATES[-1]


def samples_beyond(samples: int, p: float) -> float:
    """How many of ``samples`` values lie beyond percentile ``p``."""
    return samples * (100.0 - p) / 100.0


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``.

    Infinite values (failed requests) sort last, so a tail that reaches
    them reads as infinite: a failed request misses any latency limit.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = p / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    if frac == 0.0 or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bytes_written() -> Optional[int]:
    """Bytes this process has passed to write(2) so far (``wchar`` of
    /proc/self/io), or None where the kernel does not expose it."""
    try:
        with open("/proc/self/io", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def tree_digest(root: str, suffix: str = ".py") -> str:
    """A digest of every ``suffix`` file under ``root`` (names and bytes)."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(suffix):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def memo(cache_dir: Optional[str], key: str, compute):
    """``compute()``, or the value an earlier call with the same ``key``
    stored as JSON under ``cache_dir`` (None: no cache)."""
    if cache_dir is None:
        return compute()
    path = os.path.join(cache_dir, hashlib.sha256(key.encode()).hexdigest()[:24] + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)["value"]
    except (OSError, ValueError, KeyError):
        pass
    value = compute()
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"key": key, "value": value}, fh)
    os.replace(tmp, path)
    return value


def calibrate() -> dict:
    """A machine-calibration score: a fixed pure-Python loop and a fixed
    numpy kernel, best of three each.

    ``score`` is 1000 / (python_ms + numpy_ms), so a box twice as fast
    scores twice as high; records from different boxes are compared by
    dividing their timings by their scores' ratio.
    """
    import numpy as np

    def py_loop() -> int:
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    rng = np.random.default_rng(12345)
    x = rng.random((20_000, 16))
    v = rng.random(200_000)

    # Element-wise work and a sort: no BLAS call, whose thread pool would
    # make the timing depend on what else the box runs.
    def np_kernel() -> float:
        out = 0.0
        for i in range(8):
            out += float((np.abs(x - x[i]) ** 5).sum())
            out += float(np.sort(v)[1000])
        return out

    def best_ms(fn) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1000.0)
        return min(times)

    py_ms = best_ms(py_loop)
    np_ms = best_ms(np_kernel)
    return {
        "python_ms": py_ms,
        "numpy_ms": np_ms,
        "score": 1000.0 / (py_ms + np_ms),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }


class Pace:
    """Tracks how fast the box runs, to report times at a nominal speed.

    A shared 2-core VM (where this was tuned) drifts by a third within seconds
    (other tenants share its cores), which swamps the changes a benchmark
    must resolve.  So a fixed reference kernel, unrelated to the program,
    runs between ops every ``every`` seconds, and :meth:`scale` converts a
    measured duration to the one it would have taken had the kernel run at
    its nominal ``REF_MS`` then: measured time x REF_MS / (median kernel
    time within ``window`` seconds of the interval).
    A probe runs the kernel in ``PIECES`` equal pieces and keeps the
    fastest, so a probe that shares the interpreter with busy threads
    still reads the box's speed rather than its own wait.  A change to the
    program moves scaled times as it moves raw ones; the raw times are
    kept in each run's record.
    """

    REF_MS = 3.0
    PIECES = 6

    def __init__(self, every: float = 0.25, window: float = 1.0) -> None:
        self.every = every
        self.window = window
        self.samples: list[tuple[float, float]] = []  # (mid time, kernel ms)
        self._next = 0.0
        self._piece()  # warm up numpy before the first timed probe

    @staticmethod
    def _piece() -> float:
        import numpy as np

        a = np.linspace(0.0, 1.0, 16)
        acc = 0.0
        for i in range(25):
            acc += float((np.abs(a - i / 25.0) ** 5).sum())
        for i in range(2_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    def probe(self, repeat: int = 1) -> None:
        """Time the kernel ``repeat`` times (one sample each)."""
        for _ in range(repeat):
            start = time.perf_counter()
            fastest = math.inf
            for _ in range(self.PIECES):
                t0 = time.perf_counter()
                self._piece()
                fastest = min(fastest, time.perf_counter() - t0)
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, fastest * self.PIECES * 1000.0))
        self._next = end + self.every

    def maybe(self) -> None:
        """Probe when the last probe is ``every`` seconds old."""
        if time.perf_counter() >= self._next:
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """REF_MS over the median kernel time from ``window`` seconds
        before ``t0`` to ``window`` seconds after ``t1`` (or, with no probe
        there, at the probe nearest the interval)."""
        if not self.samples:
            raise ValueError("no pace probes taken")
        near = [ms for mid, ms in self.samples
                if t0 - self.window <= mid <= t1 + self.window]
        if not near:
            centre = (t0 + t1) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - centre))[1]]
        return self.REF_MS / statistics.median(near)

    def scale(self, t0: float, t1: float) -> float:
        """The duration from ``t0`` to ``t1`` at the nominal speed."""
        return (t1 - t0) * self.factor(t0, t1)


def latency_summary(values_ms: Iterable[float], tail_p: float) -> dict:
    """Median and tail of one op type's latencies, with the sample count
    and how many samples lie beyond the tail percentile."""
    vals = list(values_ms)
    if not vals:
        return {"n": 0}
    return {
        "n": len(vals),
        "p50": percentile(vals, 50.0),
        "tail": percentile(vals, tail_p),
        "tail_p": tail_p,
        "beyond_tail": samples_beyond(len(vals), tail_p),
    }
