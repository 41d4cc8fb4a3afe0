"""Host speed sampler: divides the shared host's speed drift out of times.

The benchmark runs on a few cores of a shared host whose speed changes
by up to 1.8x for stretches of a fraction of a second to minutes as
other tenants come and go.  A run that falls in a busy period reads
slow on every time metric, so the spread between runs of the same code
is set by the host, not by the program.

A :class:`HostSampler` thread runs a fixed *probe* — a quarter of a
millisecond of pure Python, none of the program's own code — every
``INTERVAL_S`` seconds while a run is timed, and records how long each
probe took.  Every timed sample of the run (a plan, a request, a
recovery, a schedule replay, a set-up step) is then reported
*calibrated*: multiplied by

    factor = REFERENCE_PROBE_S / mean(probe seconds around the sample)

where "around" is the sample's own interval widened by ``PAD_S`` on
each side (and to at least ``MIN_PROBES`` probes).  A calibrated time
is the time the sample would have taken on a host on which the probe
takes ``REFERENCE_PROBE_S``.  The program's own speed-ups show in full,
because the probe does not run the program; a busy host largely does
not.  The mean, not the median, is used, so that a sample that spans a
quiet and a busy stretch is weighted by how long each lasted.

The probe is pure Python on purpose: it holds the interpreter lock from
start to end, so its time measures the host and never waits for the
program's thread (numpy calls such as ``sort`` release the lock and
would).  The timed work pauses for the probe once per interval (about
3%); the pause is the same on every run and every commit.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time
from typing import List

#: Probe seconds on the reference host (see perfbench/context.json);
#: calibrated times are seconds on a host this fast.
REFERENCE_PROBE_S = 0.00025
INTERVAL_S = 0.01
PAD_S = 0.1
MIN_PROBES = 5


def probe() -> int:
    """A fixed piece of pure-Python work that never releases the lock."""
    table: dict = {}
    total = 0
    for i in range(1500):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


class HostSampler:
    """Samples the host's speed on a background thread from
    :meth:`start` to :meth:`stop`; calibrate only after :meth:`stop`."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.seconds: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-host-sampler")

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop and wait for the thread (idempotent)."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            started = time.perf_counter()
            probe()
            self.seconds.append(time.perf_counter() - started)
            self.starts.append(started)

    def factor(self, start: float, end: float) -> float:
        """Calibration factor for a sample timed over ``[start, end]``
        (``time.perf_counter`` values); 1.0 without probes."""
        count = len(self.starts)
        if count == 0:
            return 1.0
        lo = bisect.bisect_left(self.starts, start - PAD_S, 0, count)
        hi = bisect.bisect_right(self.starts, end + PAD_S, 0, count)
        while hi - lo < min(MIN_PROBES, count):
            lo = max(0, lo - 1)
            hi = min(count, hi + 1)
        return REFERENCE_PROBE_S / statistics.fmean(self.seconds[lo:hi])

    def calibrate(self, start: float, seconds: float) -> float:
        """``seconds`` of a sample that began at ``start``, calibrated."""
        return seconds * self.factor(start, start + seconds)
