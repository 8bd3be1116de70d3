"""Statistics, memory probes and the machine-speed meter shared by the
workloads."""

from __future__ import annotations

import bisect
import math
import random
import resource
import statistics
import threading
import time
from typing import List, Optional, Sequence, Tuple

#: the percentile of an iteration's input-delivery calls reported as its
#: feed tail
FEED_PERCENTILE = 99

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile: the smallest value with at
    least ``q`` percent of ``values`` at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def growth_exponent(small: Tuple[float, float], large: Tuple[float, float]) -> float:
    """``b`` in ``cost ~ size**b`` through two ``(size, cost)`` points."""
    (s0, c0), (s1, c1) = small, large
    return math.log(c1 / c0) / math.log(s1 / s0)


# -- resident memory ----------------------------------------------------
#
# Peak RSS comes from the kernel's high-water mark (VmHWM), which writing
# "5" to /proc/<pid>/clear_refs resets to the current RSS.  Resetting
# just before an iteration leaves set-up out of the peak.  Where the
# reset is refused the probe falls back to getrusage, whose peak then
# includes set-up; ``PeakRss.exact`` says which one was read.


def _status_kib(pid: str, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def reset_peak(pid: str = "self") -> bool:
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fp:
            fp.write("5")
    except OSError:
        return False
    return True


class PeakRss:
    """Peak RSS of this process from construction to :meth:`read`."""

    def __init__(self) -> None:
        self.exact = reset_peak() and _status_kib("self", "VmHWM:") is not None

    def read_kib(self) -> int:
        if self.exact:
            return _status_kib("self", "VmHWM:") or 0
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class ChildPeakRss:
    """Growth of a forked child's RSS, watched from a thread.

    What the child inherited at fork is shared with the parent and
    already in the parent's figure, so :meth:`stop` returns only the
    peak's growth over the child's RSS at start, short of whatever the
    child adds in its final ``interval``.  Just after fork the child
    faults shared pages back in for some milliseconds, so the start is
    taken once its RSS holds still for one ``interval`` (for at most
    ``SETTLE_READS`` of them): read any earlier, the start, and the
    growth with it, moved by 3-4 MiB with timing.  Then the child's
    high-water mark is reset and re-read every ``interval`` seconds
    until :meth:`stop` or the child's exit.
    """

    SETTLE_READS = 25

    def __init__(self, pid: int, interval: float = 0.02) -> None:
        self._pid = str(pid)
        self._interval = interval
        self._stop = threading.Event()
        start = _status_kib(self._pid, "VmRSS:")
        for _ in range(self.SETTLE_READS):
            time.sleep(interval)
            now = _status_kib(self._pid, "VmRSS:")
            if now == start:
                break
            start = now
        reset_peak(self._pid)
        self.start_kib = start or 0
        self.peak_kib = self.start_kib
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def _watch(self) -> None:
        while not self._stop.wait(self._interval):
            value = _status_kib(self._pid, "VmHWM:")
            if value is None:
                return
            self.peak_kib = max(self.peak_kib, value)

    def stop(self) -> int:
        """The child's peak growth in KiB."""
        self._stop.set()
        self._thread.join()
        return self.peak_kib - self.start_kib


# -- machine speed -----------------------------------------------------
#
# The shared virtual machines this runs on change speed by up to 2x
# within seconds and for minutes at a time, as other tenants load the
# host and its shared cache.  A wall time is therefore scaled to a
# reference speed: while a pass runs, a thread of the same process,
# pinned with it to one CPU, times a fixed piece of Python
# (``SpeedMeter._probe``, no code of the program) every ``interval``
# seconds in thread CPU time.  Wall seconds spent while the probe took
# ``c`` seconds count as ``REFERENCE_PROBE_S / c`` seconds at reference
# speed.  Half the probe reads a table larger than the CPU's own caches,
# so that it slows, as the analyses do, when other tenants crowd the
# shared cache; without that half, slow spells were under-corrected.

#: the probe's CPU time at reference speed: about its fastest on a
#: 2-vCPU Intel Xeon virtual machine, so that reference seconds come out
#: close to that machine's wall seconds when it runs undisturbed
REFERENCE_PROBE_S = 0.0006

_PROBE_INTS = [random.Random(i).getrandbits(20000) for i in range(32)]
#: entries of the probe's table (about 36 MiB) and reads of it per probe
_TABLE_SIZE, _TABLE_READS = 1_000_000, 1000


def _status_rss_kib() -> int:
    return _status_kib("self", "VmRSS:") or 0


class SpeedMeter:
    """Probes the machine's speed from a thread until :meth:`stop`.

    ``footprint_kib`` is what the probe's table adds to the process's
    resident memory, for memory figures to leave out.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self._interval = interval
        before = _status_rss_kib()
        # A tuple of ints is untracked by the garbage collector, so the
        # table adds nothing to the program's collections.
        self._table = tuple(range(_TABLE_SIZE))
        self._reads = random.Random(0).sample(range(_TABLE_SIZE), _TABLE_READS)
        self.footprint_kib = max(_status_rss_kib() - before, 0)
        #: (perf_counter at the probe's end, the probe's CPU seconds)
        self._samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._sample()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _probe(self) -> int:
        """Dictionary updates, tuple building, big-int bit operations and
        scattered reads of a large table: what the analyses spend their
        time on."""
        table: dict = {}
        pairs = []
        for i in range(1000):
            key = i % 251
            table[key] = table.get(key, 0) + i
            if i & 7 == 0:
                pairs.append((key, i))
        bits = 0
        for value in _PROBE_INTS:
            bits |= value & (bits >> 1 | value)
        total = 0
        for i in self._reads:
            total += self._table[i]
        return len(pairs) + bits.bit_length() + total

    def _sample(self) -> None:
        c0 = time.thread_time()
        self._probe()
        cpu = time.thread_time() - c0
        if cpu > 0:
            self._samples.append((time.perf_counter(), cpu))

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second between the
        ``perf_counter`` readings ``t0`` and ``t1``: the mean of
        ``REFERENCE_PROBE_S / c`` over the probes that ended in the
        window, or the first probe after it (the last one before it
        when none came after) when none did."""
        samples = self._samples[:]
        lo = bisect.bisect_left(samples, t0, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, t1, key=lambda s: s[0])
        within = samples[lo:hi] or [samples[min(hi, len(samples) - 1)]]
        return statistics.mean(REFERENCE_PROBE_S / c for _, c in within)


def summary(values: List[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"median {q2:.4g} [q1 {q1:.4g}, q3 {q3:.4g}] of {len(values)}"
