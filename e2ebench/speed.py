"""Time measured against the machine's speed of the moment.

The machine is shared, and how fast it runs the interpreter changes
underneath the benchmark: a fixed piece of pure-Python work flips between
two speeds, 1.3x to 1.9x apart at different times, staying in each for
tenths of a second to seconds, and the share of time spent slow changes from minute to minute.
A whole run can fall in a slow stretch, so raw seconds do not repeat.

The probe is a fixed piece of pure-Python work, 0.2-0.5 ms, that mixes
the kinds of code hornlr spends its time in without calling hornlr:
bit-mask loops over permutations with sorted tuples compared (graph
enumeration), products of integer matrices with large entries (exact
characteristic polynomials), and loops that index small lists and a dict
(Horn inequalities, LR fillings). Run next to pieces of hornlr's own
work, its time moved by nearly the same factor as theirs when the
machine switched speed (once 1.77x against 1.73x for graph enumeration
and Horn checks and 1.55x for a characteristic polynomial; later 1.94x
against 1.88x and 1.73x).

`Clock` runs the probe from a SIGALRM timer every PROBE_EVERY_S of wall
time, inside whatever the process is doing. Afterwards each probe time
is replaced by the median of it and its neighbours, which removes single
disturbed probes but keeps the steps between the two speeds; each moment
between probes takes the speed of the nearest probe in time, and a
stretch of time counts as the work it held: the time that work takes
when a probe takes PROBE_REF_S (reference seconds). Probe time itself is
left out.
"""

import bisect
import gc
import signal
import statistics
import time
from itertools import permutations

PROBE_REF_S = 0.00035  # about a probe's time in this machine's fast state
PROBE_EVERY_S = 0.01
SMOOTH = 2  # each probe time is taken as the median of itself and SMOOTH neighbours each side
WARM_UP = 5  # untimed probes first, so the interpreter has specialised the probe's code

_ROWS = (0b1011, 0b0110, 0b1101, 0b0011)
_MATRIX = [[(3 * i + 5 * j + 1) ** 6 - 7 * i * j for j in range(6)] for i in range(6)]
_LISTS = [[(7 * i + 3 * j) % 11 for j in range(8)] for i in range(16)]


def _bitmasks() -> tuple:
    best = None
    for perm in permutations(range(4)):
        cols = [0, 0, 0, 0]
        for i, p in enumerate(perm):
            row = _ROWS[p]
            for j in range(4):
                if row >> j & 1:
                    cols[j] |= 1 << i
        sig = tuple(sorted(cols, reverse=True))
        if best is None or sig > best:
            best = sig
    return best


def _bigint() -> int:
    a = _MATRIX
    n = len(a)
    product = [[sum(a[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return sum(product[i][i] for i in range(n))


def _indexing() -> int:
    table = {}
    total = 0
    for row in _LISTS:
        for j in range(1, len(row)):
            key = (row[j - 1], row[j])
            if row[j - 1] + row[j] <= total % 23:
                total += 1
            table[key] = table.get(key, 0) + row[j]
    return total + len(table)


def _work() -> None:
    """About a third of the time in each kind of work."""
    _bitmasks()
    _bigint()
    _bigint()
    _indexing()
    _indexing()
    _indexing()


def probe() -> float:
    """The time of one run of the fixed work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    _work()
    took = time.perf_counter() - t
    if enabled:
        gc.enable()
    return took


class Clock:
    """Probes the machine's speed from a timer while the round runs.

    With `interval_s` 0 no timer runs, and reference seconds equal raw
    seconds.
    """

    def __init__(self, interval_s: float) -> None:
        for _ in range(WARM_UP):
            probe()
        self.probes: list[tuple[float, float, float]] = []  # (start, end, probe time)
        self.interval_s = interval_s
        if interval_s > 0:
            self._sample()
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)

    def _sample(self) -> None:
        start = time.perf_counter()
        took = probe()
        self.probes.append((start, time.perf_counter(), took))

    def _on_alarm(self, _signum, _frame) -> None:
        try:
            self._sample()
        except RecursionError:
            pass  # the alarm came deep in a recursion; the next sample will do

    def stop(self) -> None:
        if self.interval_s > 0:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._sample()

    def readings(self, times: list[float]) -> list[tuple[float, float]]:
        """(reference seconds, raw seconds) of work up to each perf_counter
        time in `times`; only differences between readings mean anything."""
        if not self.probes:
            return [(t, t) for t in times]
        # Knots split wall time into pieces of constant rate (reference
        # seconds, raw seconds per second): rates[i + 1] holds from
        # knots[i] to knots[i + 1], rates[0] before knots[0].
        took = [p[2] for p in self.probes]
        smoothed = [statistics.median(took[max(0, k - SMOOTH) : k + SMOOTH + 1]) for k in range(len(took))]
        knots, rates = [], [(PROBE_REF_S / smoothed[0], 1.0)]
        for k, (start, end, _took) in enumerate(self.probes):
            rate = (PROBE_REF_S / smoothed[k], 1.0)
            if k:
                rates.append(previous)
                knots.append((self.probes[k - 1][1] + start) / 2)  # this probe is the nearer from here
                rates.append(rate)
            knots.append(start)
            rates.append((0.0, 0.0))  # the probe itself is no work
            knots.append(end)
            previous = rate
        rates.append(previous)
        totals = [(0.0, 0.0)]  # readings at the knots
        for i in range(1, len(knots)):
            span = knots[i] - knots[i - 1]
            ref, raw = totals[-1]
            totals.append((ref + span * rates[i][0], raw + span * rates[i][1]))
        out = []
        for t in times:
            i = max(0, bisect.bisect_right(knots, t) - 1)
            rate = rates[i + 1] if t >= knots[0] else rates[0]
            out.append((totals[i][0] + (t - knots[i]) * rate[0], totals[i][1] + (t - knots[i]) * rate[1]))
        return out
