"""Reference-speed sampler: prices each request in units of a fixed kernel.

The machine this benchmark runs on may be shared.  Co-tenant load can slow
every instruction stream by up to 2x for seconds at a time, so wall-clock
figures of identical work drift by 20-40% between runs.  The sampler
interrupts the process every PERIOD_S seconds (SIGALRM) and times a fixed
reference kernel that never calls mazekit.  A request's cost is its own
wall time (sampler time inside it removed) divided by the mean kernel time
sampled during it and within WINDOW_S either side: the machine's slowdown
over the request cancels, a change to mazekit's speed does not.  The mean,
not the median, because a long request is slowed by every moment it spans.
"""

from __future__ import annotations

import bisect
import json
import re
import signal
import statistics
import time
from array import array

PERIOD_S = 0.02
WINDOW_S = 0.1

_TOKEN_RE = re.compile(r"<\|(\w+)\|>")
_TOKEN_TEXT = "".join(f"<|{i}-{i % 5}|><|up_wall|><|blank|>" for i in range(25))


def reference_kernel() -> int:
    """Dict, str, JSON and regex work of the kind mazekit does, without mazekit.

    About 150 us on a quiet core with warm caches.  It must never call
    mazekit, or a change to mazekit would move the yardstick it is
    measured with.
    """
    rows = {(i, i % 7): f"cell-{i}" for i in range(60)}
    back = json.loads(json.dumps([{"k": k[0], "v": v} for k, v in rows.items()]))
    return len(back) + len(_TOKEN_RE.findall(_TOKEN_TEXT))


class SpeedSampler:
    """Context manager that samples reference_kernel() time while active."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")  # the warm kernel run of each tick
        self.sampler_s = array("d")  # the whole tick, removed from requests

    def _tick(self, signum, frame) -> None:
        # The first run refills the caches the interrupted request evicted;
        # only the second, warm run is timed.  The cold run's time depends
        # on what it interrupted and tracked the machine less well.
        start = time.perf_counter()
        reference_kernel()
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.starts.append(start)
        self.durations.append(t1 - t0)
        self.sampler_s.append(t1 - start)

    def __enter__(self) -> "SpeedSampler":
        self._tick(signal.SIGALRM, None)  # a first sample, however short the run
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def cost(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds spent in the request itself, the same in reference units)."""
        inside = sum(self.sampler_s[bisect.bisect_left(self.starts, t0) : bisect.bisect_left(self.starts, t1)])
        own = t1 - t0 - inside
        near = self.durations[
            bisect.bisect_left(self.starts, t0 - WINDOW_S) : bisect.bisect_left(self.starts, t1 + WINDOW_S)
        ]
        return own, own / statistics.fmean(near or self.durations)
