"""A clock that counts reference seconds, so that timings do not move with
the host's speed.

On a shared host the core a run gets can slow by up to 1.9x, in spells of a
few seconds to a minute, and a whole run can fall inside one.  The process is
not descheduled: the core itself runs slower, so CPU time grows too.  To take
that out, `SpeedClock` interrupts the run every TICK_S seconds (SIGALRM) and
times `kernel`, a fixed piece of pure-Python work in the program's style.
Each stretch of wall time between two ticks is scaled by
REF_KERNEL_S / (the median of the last three kernel times), and the time the
kernel itself took is left out.  So one reference second is the time the
host takes for as much work as it does in one second when `kernel` runs in
REF_KERNEL_S.  The kernel is the benchmark's own code, so a change to the
program does not change the scale.

The program is single-threaded and pure Python, so the handler runs between
its bytecodes, on the core that runs the program.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

TICK_S = 0.05
# the kernel's time on the 2-vCPU Intel Xeon host of perfbench/NOTES.md when
# that host is unloaded; it fixes the unit, not the comparison
REF_KERNEL_S = 250e-6
RECENT = 3


class _Mod:
    __slots__ = ("m",)

    def __init__(self, m: int):
        self.m = m

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.m

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.m


_RING = _Mod(9)
_TABLE = [[(i * j) % 9 for j in range(9)] for i in range(9)]


def kernel() -> int:
    """Method calls, small-integer arithmetic, table lookups, tuples and a
    dict: Horner evaluation of 27 polynomials over Z_9, then a tally of
    hashed keys."""
    ring, table, seen = _RING, _TABLE, {}
    for c0 in range(9):
        for c1 in range(0, 9, 3):
            coeffs = (c0, c1, 3, 1)
            vals = []
            for a in range(9):
                acc = 0
                for c in reversed(coeffs):
                    acc = ring.add(ring.mul(acc, a), c)
                vals.append(acc)
            row = tuple([table[v][vals[0]] for v in vals])
            seen[row] = seen.get(row, 0) + 1
    tally, total = {}, 0
    for i in range(300):
        key = (i * 7919) % 101
        tally[key] = tally.get(key, 0) + i
        total += (i * i) % 97
    return len(seen) + len(tally) + total


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class SpeedClock:
    """`now()` reads reference seconds while the clock runs.

    The state (reference seconds so far, wall time they were counted to,
    current scale) is one tuple that the handler replaces whole, so a read
    never mixes two ticks.
    """

    def __init__(self, tick_s: float = TICK_S):
        self.tick_s = tick_s
        self.kernel_s: list[float] = []
        self._state = (0.0, perf_counter(), 1.0)
        self._previous = None

    def _scale(self) -> float:
        return REF_KERNEL_S / statistics.median(self.kernel_s[-RECENT:])

    def _tick(self, _signum=None, _frame=None) -> None:
        arrived = perf_counter()
        done, since, scale = self._state
        done += (arrived - since) * scale
        self.kernel_s.append(time_kernel())
        self._state = (done, perf_counter(), self._scale())

    def now(self) -> float:
        while True:
            state = self._state
            t = perf_counter()
            if state is self._state:
                return state[0] + (t - state[1]) * state[2]

    def start(self) -> None:
        for _ in range(RECENT):
            self.kernel_s.append(time_kernel())
        done, _, _ = self._state
        self._state = (done, perf_counter(), self._scale())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        stopped = perf_counter()
        done, since, scale = self._state
        self._state = (done + (stopped - since) * scale, stopped, scale)

    def __enter__(self) -> "SpeedClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

