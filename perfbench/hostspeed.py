"""Host-speed correction of measured seconds.

The speed of a shared virtual machine drifts: on the 2-vCPU host this
benchmark was written on, a fixed pure-Python loop takes anywhere between
about 1.0 and 1.6 times its fastest time, in phases lasting seconds to
minutes, and every part of the library slows by about the same factor.  A
time measured in one phase cannot be compared with one measured in another.

``HostSpeed`` follows those phases with two fixed pieces of pure-Python
work, the *probes*: a loop of integer steps, and Fraction elimination plus
set algebra on tuples (the kinds of work the p-adic and the finite and
shift backends do).  An interval timer delivers ``SIGALRM`` every
``TICK_S`` of wall time and the handler, which runs between two bytecodes
of the main thread, times the next probe, alternating between the two.  A
timed interval is then reported in *reference seconds*: its wall time,
minus the time spent in probes, divided by the host's slowness during it.
The slowness is the mean over the two probes of the median probe time
within ``WINDOW_S`` of the interval over that probe's ``REF_PROBE_S``.  On
a host where each probe takes exactly its ``REF_PROBE_S`` the two are
equal.  The probes do not call the library, so a change that makes the
library slower makes its reference seconds larger by the same share.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from fractions import Fraction

# each probe's time on the reference host: about its median in a fast phase
REF_PROBE_S = (2.5e-4, 2.75e-4)
TICK_S = 0.01
# probes this far before and after an interval also set its speed; the
# host's speed moves within a second, so a short window follows it best
WINDOW_S = 0.1

_SETS = [frozenset((i * j % 11, j) for j in range(12)) for i in range(1, 9)]


def _probe_loop():
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


def _probe_fractions_and_sets():
    m = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + 2 * j) % 4) for j in range(4)]
         for i in range(4)]
    for c in range(4):
        piv = next((r for r in range(c, 4) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(4):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    union = set()
    for a in _SETS:
        for b in _SETS:
            union |= a & b
    return m, {x: len(union) for x in union}


_PROBES = (_probe_loop, _probe_fractions_and_sets)


class HostSpeed:
    """The probe samples of one process, and the scaling of timed intervals."""

    def __init__(self):
        self.at = array("d")  # start of each probe, perf_counter seconds
        self.took = array("d")  # its duration
        self.kind = array("b")  # which probe
        self.probe_s = 0.0  # wall time spent in probes, handler included
        self._previous_handler = None

    def sample(self, *_signal_args) -> None:
        """Time the next probe once; also the ``SIGALRM`` handler."""
        start = time.perf_counter()
        kind = len(self.kind) % len(_PROBES)
        _PROBES[kind]()
        end = time.perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self.kind.append(kind)
        self.probe_s += time.perf_counter() - start

    def settle(self, seconds: float = WINDOW_S) -> None:
        """Probe back to back for ``seconds``: the window before a first
        interval or after a last one."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()

    def start_ticks(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticks(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def clock(self) -> float:
        """Wall seconds that leave out the time spent in probes."""
        return time.perf_counter() - self.probe_s

    def timed(self, fn, *args, **kwargs):
        """((start, end, wall seconds), result) of one call of ``fn``.

        The wall seconds exclude the probes that ran during the call.
        """
        probe_before = self.probe_s
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
        return (start, end, end - start - (self.probe_s - probe_before)), result

    def reference_seconds(self, interval) -> float:
        """The wall seconds of ``interval`` scaled to the reference speed."""
        start, end, wall = interval
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        slowness = []
        for kind, ref in enumerate(REF_PROBE_S):
            took = [self.took[i] for i in range(lo, hi) if self.kind[i] == kind]
            if not took:
                raise RuntimeError("no probe near a timed interval")
            slowness.append(statistics.median(took) / ref)
        return wall / statistics.fmean(slowness)
