"""Host-speed calibration: a fixed probe timed between ops, to scale timings by.

The benchmark runs in a shared virtual machine whose speed swings by up to
2x, within a second and over minutes, and process CPU time swings with wall
time.  So between ops the benchmark times a fixed probe that the program
cannot influence, and scales each timing by the probe's reference time over
its mean time in the same window.  The mean, not the median: the host also
switches speed within milliseconds, an op pays the average of those switches,
and the mean of many short probes follows that average.  The end-to-end timings are thus given
for a reference host on which each probe takes its `reference_ns`; the raw
figures are printed beside them.

In-process workloads use KERNEL, a pure-Python loop of SHA-256 and
big-integer XOR over 32-byte blocks, the program's own kind of work.  The
`cli` workload uses the start of a bare interpreter, whose cost (process
creation, loading, page faults) moves with the host the way a CLI call's does.
"""

import hashlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass


def kernel() -> bytes:
    x = bytes(32)
    for i in range(150):
        x = hashlib.sha256(x + i.to_bytes(4, "big")).digest()
        x = (int.from_bytes(x, "big") ^ i).to_bytes(32, "big")
    return x


@dataclass(frozen=True)
class Probe:
    work: object        # callable: one probe run
    reference_ns: int   # its time on the host the benchmark was written on
    every_s: float      # least time between two bursts
    burst: int          # probe runs per burst
    window_s: float     # an op is scaled by the bursts of its window

    def times(self, count: int) -> list[int]:
        result = []
        for _ in range(count):
            t0 = time.perf_counter_ns()
            self.work()
            result.append(time.perf_counter_ns() - t0)
        return result


KERNEL = Probe(kernel, 250_000, 0.02, 3, 0.5)


def interpreter_probe(env: dict) -> Probe:
    return Probe(lambda: subprocess.run([sys.executable, "-c", "pass"], env=env, check=True),
                 45_000_000, 0.3, 1, 2.0)


class HostSpeed:
    """Probe bursts taken during one run, keyed by seconds since its start."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.start = time.perf_counter()
        self.samples = []
        self._last = float("-inf")

    def now(self) -> float:
        return time.perf_counter() - self.start

    def maybe_sample(self) -> None:
        now = self.now()
        if now - self._last >= self.probe.every_s:
            self.samples.extend((now, ns) for ns in self.probe.times(self.probe.burst))
            self._last = now

    def scales(self) -> dict:
        """Window index -> reference time over the probe's mean time in that window."""
        windows = {}
        for t, ns in self.samples:
            windows.setdefault(int(t / self.probe.window_s), []).append(ns)
        return {w: self.probe.reference_ns / statistics.fmean(v) for w, v in windows.items()}

    def scale_at(self, scales: dict, t: float) -> float:
        """Scale of the window holding t, or of the nearest window with bursts."""
        w = int(t / self.probe.window_s)
        if w in scales:
            return scales[w]
        return scales[min(scales, key=lambda k: abs(k - w))]


def timed(fn, probe: Probe):
    """Run fn(); return (its result, raw seconds, seconds scaled to the reference host)."""
    count = max(2, 2 * probe.burst)
    before = probe.times(count)
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, raw * probe.reference_ns / statistics.fmean(before + probe.times(count))
