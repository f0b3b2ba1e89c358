"""Host-speed-corrected timing.

Shared hosts change speed for seconds at a time.  On a 2-core Xeon
host a fixed 35-ms pure-Python loop took 33 ms in some spells and
52 ms in others, in wall and CPU time alike, so raw round times of the
same work spread by a quarter between runs.  ``Clock`` therefore runs a
short fixed probe loop at the start of every timed segment and, through
an interval timer, every ``INTERVAL`` seconds inside it.  Each stretch
of a segment between two probes is rescaled by ``NOMINAL / probe``, the
speed the probe just saw, so a segment reads as the seconds it would
take on a host where the probe takes ``NOMINAL`` seconds.  The probes'
own time is left out.  A change to qborel moves the segment time and
not the probe, so it still shows in full.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.05
NOMINAL = 0.0004   # seconds: the probe amid the workloads on that host, fast spells


def probe():
    """Fixed pure-Python work in the style of the library's dict arithmetic."""
    terms = {}
    for k in range(3000):
        key = k & 31
        terms[key] = terms.get(key, 0) + k
    return terms


class Clock:
    """Times segments of work, rescaled to the nominal host speed."""

    def __init__(self):
        self._marks = []   # (probe end, probe duration)

    def _probe(self, *_):
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self._marks.append((end, end - start))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def start(self):
        """Begin a segment."""
        self._marks = []
        self._probe()

    def stop(self):
        """End the segment; returns (raw seconds, rescaled seconds)."""
        end = time.perf_counter()
        marks = self._marks
        raw = scaled = 0.0
        for (since, dur), nxt in zip(marks, marks[1:] + [(end, 0.0)]):
            stretch = nxt[0] - nxt[1] - since
            raw += stretch
            scaled += stretch * NOMINAL / dur
        self._marks = []
        return raw, scaled
