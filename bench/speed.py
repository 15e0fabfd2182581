"""Speed probe: how fast the core runs Python at each moment of an op.

The host this benchmark was tuned on (2 shared vCPUs) slows a process down
by about half in bursts of 0.1 s to several seconds and moves its speed by
15% between minutes, without any steal time.  So the wall time of an op
follows the host more than the program.  While an op runs, a SIGALRM handler
times a short fixed loop every PERIOD_S seconds, in the same process.  The
op's cost is its time measured in loops at the speed of each moment: each
stretch of the op between two probes is divided by the loop time around it.
An op that does the same work costs the same whether or not a burst hit it.
"""

import signal
import statistics
import time

PERIOD_S = 0.02   # probe interval while an op runs
LOOP_N = 3000     # iterations of the probe loop: about 0.3 ms

clock = time.perf_counter


def loop():
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return s


class Probe:
    """Context manager around one op: `busy_s` is its time without the
    probes, `cost` its time in probe loops."""

    def __init__(self):
        self.marks = []  # (start, end) of every probe loop

    def _probe(self, *_):
        t = clock()
        loop()
        self.marks.append((t, clock()))

    def __enter__(self):
        self._probe()  # one just before the op, so every op has two
        self.saved = signal.signal(signal.SIGALRM, self._probe)
        self.t0 = clock()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.t1 = clock()
        signal.signal(signal.SIGALRM, self.saved)
        self._probe()  # and one just after
        inner = self.marks[1:-1]
        loops = [b - a for a, b in self.marks]
        edges = [self.t0] + [t for m in inner for t in m] + [self.t1]
        self.busy_s = self.cost = 0.0
        # Stretch k lies between probes k and k + 1; its speed is the median
        # loop time of the two probes on each side.
        for k in range(len(inner) + 1):
            stretch = edges[2 * k + 1] - edges[2 * k]
            self.busy_s += stretch
            self.cost += stretch / statistics.median(loops[max(0, k - 1):k + 3])
        self.probes = len(self.marks)
        return False
