"""One interval timer for op deadlines and for sampling the machine's speed.

The host is shared: a fixed loop's time drifts by 10 to 70 % over minutes
and jumps by up to 60 % for a few seconds.  Every ``PERIOD`` seconds the
timer's handler times two small fixed kernels, one of pure-Python dict and
tuple work that stays in the caches and one of numpy passes over a 2 MB
array, and keeps the geometric mean of their times: the library is part
interpreter and part array code, and of the kernels and mixes tried this
mean tracked its slowdowns best (the interpreter kernel alone slows about
half as much again as the library's largest ops).  An interval's time at the
reference speed is its raw time scaled by ``REF_KERNEL_S`` over the median
kernel time sampled during it.  The same
handler raises ``OpDeadline`` once an op's deadline has passed, so deadlines
add no thread or process.

The kernels run in the benchmark's main thread, so they would also slow down
when the program itself runs more threads (waiting for the GIL, or sharing
the two cores), and every scaled time would then shrink.  So a tick drops its
sample while this process runs more threads than it started with, or the
child process being waited for runs more than one; ``sample_between_ops``
adds a sample before every op, when none of the program's work runs, and an
op with no sample of its own is scaled by those nearest to it.
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import time

import numpy as np

PERIOD = 0.05
REF_KERNEL_S = 0.0006  # kernel time at the reference speed, about this host's typical speed
MIN_SAMPLES = 5  # fewer inside an interval: use this many samples nearest to it


class OpDeadline(BaseException):
    """Raised inside an op that runs past its deadline."""


_ARRAY = np.arange(1 << 18) % 251


def _interpreter_kernel():
    acc = {}
    for i in range(1500):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0) + i * i % 5


def _array_kernel():
    np.bincount(_ARRAY, minlength=251)
    (_ARRAY == 3).sum()


def _timed(kernel):
    kernel()  # warm the caches the main work just evicted, then time a second run
    start = time.perf_counter()
    kernel()
    return start, time.perf_counter() - start


def _threads(pid="self"):
    """Threads of a process; 1 where /proc cannot tell (the process has ended)."""
    try:
        return len(os.listdir(f"/proc/{pid}/task"))
    except OSError:
        return 1


class SpeedClock:
    def __init__(self):
        self.times = []  # sample start times, increasing
        self.kernel_s = []  # geometric mean of the two kernel times of each sample
        self.deadline = None
        self.own_threads = 1  # threads of this process when the clock started
        self.child = None  # pid of the child process being waited for
        self.dropped = 0  # samples dropped because the program ran more threads

    def start(self):
        self.own_threads = _threads()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _arm(self, now):
        delay = PERIOD if self.deadline is None else max(min(PERIOD, self.deadline - now), 1e-4)
        signal.setitimer(signal.ITIMER_REAL, delay)

    def _tick(self, signum, frame):
        now = time.perf_counter()
        if self.deadline is not None and now >= self.deadline:
            self.deadline = None
            self._arm(now)
            raise OpDeadline()
        if _threads() > self.own_threads or (self.child is not None and _threads(self.child) > 1):
            self.dropped += 1
        else:
            self._sample()
        self._arm(time.perf_counter())

    def _sample(self):
        start, interpreter = _timed(_interpreter_kernel)
        _, array = _timed(_array_kernel)
        self.times.append(start)
        self.kernel_s.append((interpreter * array) ** 0.5)

    def sample_between_ops(self):
        """One sample while no op runs; the timer's ticks wait until it is taken."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def wait_child(self, proc):
        """Wait for a child ``Popen`` while the ticks watch its threads; kill it if
        the wait is interrupted (by a deadline).  Returns (exit code, rusage)."""
        self.child = proc.pid
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            self.child = None
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def set_deadline(self, seconds):
        """Arm a deadline `seconds` from now; None clears it."""
        now = time.perf_counter()
        self.deadline = None if seconds is None else now + seconds
        self._arm(now)

    def kernel_median(self, t0, t1):
        if not self.times:
            return REF_KERNEL_S
        i, j = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        if j - i < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            i = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            j = i + MIN_SAMPLES
        return statistics.median(self.kernel_s[i:j])

    def at_reference(self, t0, t1):
        """Seconds the interval [t0, t1] would take at the reference speed."""
        return (t1 - t0) * REF_KERNEL_S / self.kernel_median(t0, t1)


CLOCK = SpeedClock()  # the one clock of a run: there is one interval timer per process
