"""Timing that is corrected for the host's drifting speed.

On a shared virtual machine the CPU speed a process gets drifts by a
quarter or more within minutes, and a 30-second run can fall in a slow
stretch as a whole. Wall times then differ between runs of the same code
by more than any regression worth catching.

The ``Pacer`` measures that drift while the benchmark runs. A timer
interrupts the process every ``INTERVAL`` seconds of wall time, and the
signal handler times a fixed piece of pure-Python work, the probe: dict
and list traffic and small function calls, like the program's own graph
code. ``seconds(a, b)`` turns the wall interval ``[a, b]`` into seconds at
reference speed: the interval minus the probes that ran inside it, scaled
by ``REF_PROBE_S`` over the median probe time around it. Code that gets
slower still reads slower; a host that gets slower does not.

The probes run in the process's main thread between bytecodes, never
inside a C call, and touch none of the program's state.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

clock = time.perf_counter

INTERVAL = 0.02
# Probe seconds at reference speed: the median probe time on a 2-vCPU
# x86-64 virtual machine with CPython 3.11. It only sets the scale of
# the corrected times, so that they read as seconds on such a host.
REF_PROBE_S = 0.0007
# probes that judge the speed of an interval: those inside it and within
# WINDOW seconds of it, at least MIN_PROBES (the nearest ones)
WINDOW = 0.1
MIN_PROBES = 7


def _probe_work() -> int:
    """The fixed probe: build and walk a small adjacency map."""
    adj: dict[int, list[int]] = {}
    for v in range(60):
        adj[v] = [(v * 7 + i) % 60 for i in range(1, 4)]
    seen = {0: 0}
    queue = [0]
    for u in queue:
        for w in adj[u]:
            if w not in seen:
                seen[w] = seen[u] + 1
                queue.append(w)
    return _total(seen.values())


def _total(values) -> int:
    s = 0
    for x in values:
        s += x
    return s


def probe(reps: int = 10) -> float:
    """Seconds one probe takes now."""
    t0 = clock()
    for _ in range(reps):
        _probe_work()
    return clock() - t0


class Pacer:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def install(self) -> None:
        starts, durations = self.starts, self.durations

        def on_alarm(signum, frame):
            t0 = clock()
            d = probe()
            starts.append(t0)
            durations.append(d)

        self._previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def restore(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def probe_seconds(self, a: float, b: float) -> float:
        """Total probe time that started inside ``[a, b)``."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return sum(self.durations[lo:hi])

    def speed(self, a: float, b: float) -> float:
        """Reference probe time over the median probe time around [a, b]:
        above 1 when the host ran faster than the reference."""
        starts, n = self.starts, len(self.starts)
        if n == 0:
            return 1.0
        lo = bisect.bisect_left(starts, a - WINDOW)
        hi = bisect.bisect_right(starts, b + WINDOW)
        while hi - lo < min(MIN_PROBES, n):
            # widen towards the nearer of the two neighbours
            if lo > 0 and (hi >= n or a - starts[lo - 1] <= starts[hi] - b):
                lo -= 1
            else:
                hi += 1
        return REF_PROBE_S / statistics.median(self.durations[lo:hi])

    def seconds(self, a: float, b: float) -> float:
        """Seconds at reference speed that the wall interval [a, b] held."""
        return (b - a - self.probe_seconds(a, b)) * self.speed(a, b)
