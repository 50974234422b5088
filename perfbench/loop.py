"""The closed loop and the arithmetic the benchmark reports with.

The host's speed drifts: a fixed pure-Python loop has taken anywhere from
1x to 2.7x its fastest time from one second to the next, in CPU time as
much as in wall time.  So while the loop runs, a timer interrupts it every
REF_PERIOD seconds to time reference(), a fixed piece of standard-library
work of the kind the package does: small objects, dicts, tuples, integer
and Fraction arithmetic, and reads scattered over a table larger than the
core's cache, as variation's tables are.  A reference without the table
tracked variation's slow spells less well.  Each op's time is then also
given in units of the reference times taken within REF_WINDOW seconds of
it: that ratio follows the code more than the host's speed of the moment.
The time spent in the timer is taken out of each op's time.
"""
from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
import traceback
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

REF_PERIOD = 0.1
REF_WINDOW = 0.5
REF_WORDS = 2_000_000  # 16 MB of int64, eight times the 2 MB L2 cache


@dataclass
class Samples:
    times: list = field(default_factory=list)  # seconds per op
    spans: list = field(default_factory=list)  # (start, end) of each op
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted


def reference(table):
    """A fixed workload of about 3 ms that uses the interpreter the way the
    package's kernels do; its time tracks the host's speed."""
    small = {}
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 17, i % 5)
        small[key] = (small.get(key, 1) * (i + acc.denominator)) % 1_000_003
        pair = tuple(small.get((k % 17, k % 5), 0) for k in range(i - 4, i))
    s, j = 0, 999
    for _ in range(5000):
        j = (j * 1103515245 + 12345 + s) % len(table)
        s = (s + table[j]) & 1023
    return acc, pair, s


class Calibrator:
    """Times reference() from a SIGALRM timer while it is entered.
    samples holds (start, seconds) per call; busy sums the seconds.  Its
    table adds REF_WORDS * 8 bytes to the process's peak memory."""

    def __init__(self):
        self.table = array("q", range(REF_WORDS))
        self.samples = []
        self.busy = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference(self.table)
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))
        self.busy += t1 - t0

    def __enter__(self):
        self._tick(None, None)  # every run has at least one sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD, REF_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_closed_loop(op, seconds: float, clock=time.perf_counter,
                    prepare=None, min_ops: int = 1, calibrator=None) -> Samples:
    """Call op(0), op(1), ... one after another until `seconds` have passed
    and at least min_ops calls were made.  prepare(i), when given, runs
    before op(i) outside its timing, and so does any reference() the
    calibrator ran during op(i).  An op fails by raising; the failure is
    recorded and the loop goes on."""
    samples = Samples()
    start = clock()
    i = 0
    while True:
        if prepare is not None:
            prepare(i)
        busy = calibrator.busy if calibrator else 0.0
        t0 = clock()
        try:
            op(i)
        except Exception:  # one op's failure is a measured outcome
            samples.failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
        t1 = clock()
        stolen = calibrator.busy - busy if calibrator else 0.0
        samples.times.append(t1 - t0 - stolen)
        samples.spans.append((t0, t1))
        i += 1
        if i >= min_ops and t1 - start >= seconds:
            break
    return samples


def in_reference_units(samples: Samples, ref_samples):
    """Each op's time divided by the median reference time sampled from
    REF_WINDOW seconds before the op to REF_WINDOW seconds after it, or by
    the nearest sample when none falls there."""
    starts = [t for t, _ in ref_samples]
    out = []
    for (t0, t1), seconds in zip(samples.spans, samples.times):
        lo = bisect.bisect_left(starts, t0 - REF_WINDOW)
        hi = bisect.bisect_right(starts, t1 + REF_WINDOW)
        if lo == hi:
            nearest = min(range(len(starts)), key=lambda k: abs(starts[k] - t0))
            lo, hi = nearest, nearest + 1
        out.append(seconds / statistics.median(d for _, d in ref_samples[lo:hi]))
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q
    of the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> float:
    """The 90th percentile once at least ten values lie beyond it (100
    values), else the maximum.  Higher percentiles are not used, so that a
    run does not switch percentile when its op count changes."""
    return percentile(values, 0.9) if len(values) >= 100 else max(values)
