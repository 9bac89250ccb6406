"""Time at a reference interpreter speed.

On a shared virtual machine the same Python code runs up to twice as fast in
one minute as in the next, so wall and CPU seconds drift with the neighbours'
load rather than with the program.  `RefClock` samples the interpreter's
current speed every PERIOD seconds, from a SIGALRM handler in the measured
thread itself, by timing a fixed calibration kernel.  `seconds(a, b)` then
converts the program's time in [a, b] (kernel time excluded) into reference
seconds: each stretch between two samples is scaled by REF_KERNEL_S over the
kernel time sampled at its end.  A program that does more work reads more
reference seconds; a machine that slows down does not.
"""

import bisect
import gc
import signal
import time

PERIOD = 0.01
REF_KERNEL_S = 0.0004  # kernel time at the reference speed


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def weight(self):
        return self.key & 15


def kernel():
    """A fixed slice of interpreter work like the solver's: objects, method
    calls, dicts, sets and tuples.  `RefClock` runs it with the garbage
    collector off, so the program's collections never fall inside it."""
    table = {}
    seen = set()
    acc = 0
    for i in range(600):
        node = _Node(i & 127, (i, i * 3))
        table[node.key] = node
        other = table.get((i * 7) & 127)
        if other is not None and other.key not in seen:
            seen.add(other.key)
            acc += other.weight() + other.value[1]
    return acc


class RefClock:
    def __init__(self):
        self.starts = []  # perf_counter at each sample
        self.costs = []  # kernel seconds of each sample

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        kernel()
        self.starts.append(t)
        self.costs.append(time.perf_counter() - t)
        if enabled:
            gc.enable()

    def start(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, a, b):
        """Reference seconds of program time between perf_counter values a < b."""
        i = bisect.bisect_right(self.starts, a)
        total, t = 0.0, a
        while i < len(self.starts) and self.starts[i] < b:
            total += (self.starts[i] - t) * REF_KERNEL_S / self.costs[i]
            t = self.starts[i] + self.costs[i]
            i += 1
        cost = self.costs[min(i, len(self.costs) - 1)]
        return total + max(0.0, b - t) * REF_KERNEL_S / cost
