"""Measurement helpers: percentiles, spans, the host probe and RSS.

Nothing here ever drops or rescales a run; the host probe is recorded
beside the numbers so a reader can judge them.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

# the percentiles a tail may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    xs = sorted(samples)
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly after the nearest-rank ``p`` percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(samples) -> tuple[float, float] | None:
    """(p, value) for the highest ladder percentile that has at least
    ``MIN_BEYOND`` samples beyond it, or None when even the median
    has fewer."""
    n = len(samples)
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = (p, percentile(samples, p))
    return best


def median(samples) -> float:
    return float(statistics.median(samples))


class Spans:
    """Self-time recorder for the in-process layer replay: ``with
    spans("segments.read"):`` adds the block's wall time to that name
    and ``spans.count(name, n)`` adds to a counter."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    @contextmanager
    def __call__(self, name: str):
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - t0)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)


# ---- host probe ----

def _cpu_ticks() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def calibration_ms() -> float:
    """A fixed numpy kernel (seeded sort + matmul); its time tracks
    how fast this host runs plain CPU work right now."""
    rng = np.random.default_rng(0)
    a = rng.random(400_000)
    m = rng.random((160, 160))
    t0 = time.perf_counter()
    for _ in range(3):
        np.sort(a)
        m = m @ m
        m /= m.max()
    return (time.perf_counter() - t0) * 1e3


def git_sha(root: str) -> str | None:
    """HEAD's commit from ``.git`` files, without running git; None
    outside a git checkout."""
    gdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gdir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        p = os.path.join(gdir, ref)
        if os.path.exists(p):
            with open(p) as fh:
                return fh.read().strip()
        with open(os.path.join(gdir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def nproc() -> int:
    """CPUs as GNU ``nproc`` counts them: the affinity mask, lowered by
    ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    if omp.isdigit() and int(omp) > 0:
        n = min(n, int(omp))
    return n


class HostProbe:
    """Steal and load around the measured window, plus the calibration
    kernel before and after it."""

    def __init__(self, root: str) -> None:
        self.record: dict = {"nproc": nproc(), "git_sha": git_sha(root)}

    def start(self) -> None:
        self.record["calib_before_ms"] = calibration_ms()
        self.record["loadavg_before"] = list(os.getloadavg())
        self._ticks = _cpu_ticks()

    def stop(self) -> dict:
        after = _cpu_ticks()
        delta = [b - a for a, b in zip(self._ticks, after)]
        total = sum(delta) or 1
        steal = delta[7] if len(delta) > 7 else 0
        self.record["steal_ticks"] = steal
        self.record["steal_share"] = steal / total
        self.record["loadavg_after"] = list(os.getloadavg())
        self.record["calib_after_ms"] = calibration_ms()
        return self.record


# ---- memory ----

def _ppid_map() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                s = fh.read()
        except OSError:
            continue
        out[int(d)] = int(s[s.rindex(")") + 2:].split()[1])
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb(root_pid: int | None = None) -> float:
    """Summed RSS of ``root_pid`` (default: this process) and every
    process descended from it: the client and the Ray processes it
    started."""
    root_pid = root_pid or os.getpid()
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        total += _rss_kb(pid)
        todo.extend(children.get(pid, []))
    return total / 1024.0
