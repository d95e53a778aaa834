"""Machine-speed probe for calibrated timings.

On a shared host the speed of one core drifts by tens of percent over tens
of seconds, so raw timings of the same code differ from run to run by more
than any useful regression bound.  The probe times a fixed pure-Python
reference routine (3x3 matrix products over a two-integer ring, the same
kind of interpreter work su21 does) every INTERVAL seconds from a SIGALRM
handler, also in the middle of long operations.  A measured duration is
then reported in calibrated seconds:

    calibrated = (raw - probe time inside the interval)
                 * REFERENCE_NOMINAL_S / median(reference time near the interval)

that is, the time the work would take on a machine where the reference
routine takes REFERENCE_NOMINAL_S.  Changes to su21 do not touch the
reference routine, so they move calibrated times as they move raw ones.
"""

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL = 0.25
REFERENCE_ROUNDS = 160
REFERENCE_NOMINAL_S = 0.01


class _Pair:
    """a + b*w with w^2 = -1 - w, kept small by reducing mod 2^31 - 1."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a % 2147483647
        self.b = b % 2147483647

    def __add__(self, other):
        return _Pair(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        bd = self.b * other.b
        return _Pair(self.a * other.a - bd, self.a * other.b + self.b * other.a - bd)


_MATRIX = tuple(tuple(_Pair(3 * i + j + 1, i - j) for j in range(3)) for i in range(3))


def reference_work(rounds=REFERENCE_ROUNDS):
    m = _MATRIX
    r = m
    for _ in range(rounds):
        r = tuple(
            tuple(r[i][0] * m[0][j] + r[i][1] * m[1][j] + r[i][2] * m[2][j] for j in range(3))
            for i in range(3)
        )
    return r[0][0].a


class SpeedProbe:
    """Samples the reference routine every INTERVAL seconds while active
    (use as a context manager) and converts raw intervals to calibrated
    seconds."""

    def __init__(self):
        self.times = []
        self.durations = []
        self.busy = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.times.append(start)
        self.durations.append(end - start)
        self.busy += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrated(self, start, end, busy):
        """Calibrated seconds for the interval [start, end], of which the
        probe itself took busy seconds.  Call after the probe has stopped,
        so the samples just after the interval are there too."""
        net = (end - start) - busy
        lo = bisect_left(self.times, start - INTERVAL)
        hi = bisect_right(self.times, end + INTERVAL)
        near = self.durations[lo:hi]
        if not near:
            # no sample close by: the latest one before the interval
            near = self.durations[max(0, lo - 1):lo] or self.durations[:1]
        return net * REFERENCE_NOMINAL_S / statistics.median(near)
