"""Host-normalized time: every timed section divided by the host's speed.

The benchmark runs on shared virtual CPUs whose speed changes from one
fraction of a second to the next (a bare loop flips between about 1.3M
and 2.0M iterations per second, and the share of time spent slow drifts
over minutes).  Raw timings of identical runs then spread by a quarter.
So the benchmark interleaves a fixed *reference slice* of pure-Python
work with the work it measures, on the CPUs that work runs on, and
divides every timed section by the host's slowdown around it:

    slowdown   = reference slice seconds now / REFERENCE_SECONDS
    normalized = raw seconds / slowdown

The mean of the slices just before and just after a section is its
slowdown.  A normalized second is a second on a host where one reference
slice takes ``REFERENCE_SECONDS``; a program change moves normalized time
as it moves raw time, while the host's drift cancels.  Over 10 s windows
of the ``dse`` loop this cut the spread of throughput from 0.17 to 0.02
(IQR / median).

``python3 -m perfbench.clock`` serves slices on its own CPU: it runs one
slice per input line and answers with its seconds.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from typing import List, Optional, Union

from perfbench.common import ROOT, on_worker_cpu, worker_cpu_apart

#: Loop iterations in one reference slice (about 13 ms on a calm host).
REFERENCE_ITERATIONS = 40_000
#: Seconds one reference slice takes on the host normalized time refers
#: to: a calm 2-vCPU Xeon (Sapphire Rapids) KVM guest running CPython 3.11.
REFERENCE_SECONDS = 0.013


def reference_slice() -> float:
    """Run one reference slice here; returns its seconds.

    Dictionary updates and integer formatting: interpreter-bound work like
    the simulators and the serving stack, and unlike them fixed forever.
    """
    started = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        table[i & 63] = table.get(i & 63, 0) + i
        total += len(str(i))
    return time.perf_counter() - started


class HostClock:
    """Slowdown samples of the CPUs the measured work runs on.

    With ``worker_cpu`` set and the worker CPU apart from this process's,
    a helper process on the worker CPU runs its slice at the same time as
    this process runs its own, and the slowdown is their geometric mean.
    Use it as a context manager: leaving it stops and reaps the helper.
    """

    def __init__(self, worker_cpu: bool = False) -> None:
        self._helper: Optional[subprocess.Popen] = None
        if worker_cpu and worker_cpu_apart():
            with on_worker_cpu():
                self._helper = subprocess.Popen(
                    [sys.executable, "-m", "perfbench.clock"],
                    cwd=ROOT,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
        #: Every slowdown sampled, in order (recorded in the provenance).
        self.samples: List[float] = []
        try:
            self._last = self.sample()
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        """Measure the slowdown now and make it the start of the next section."""
        if self._helper is not None:
            self._helper.stdin.write("\n")
            self._helper.stdin.flush()
        seconds = reference_slice()
        if self._helper is not None:
            answer = self._helper.stdout.readline()
            if not answer:
                raise RuntimeError("perfbench: the reference helper exited")
            seconds = math.sqrt(seconds * float(answer))
        slowdown = seconds / REFERENCE_SECONDS
        self.samples.append(slowdown)
        self._last = slowdown
        return slowdown

    def section(self) -> float:
        """Slowdown of the section since the last sample: mean of both ends."""
        before = self._last
        return (before + self.sample()) / 2

    def close(self) -> None:
        helper, self._helper = self._helper, None
        if helper is None:
            return
        helper.stdin.close()
        try:
            helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            helper.kill()
            helper.wait()
        helper.stdout.close()

    def __enter__(self) -> "HostClock":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class RawClock:
    """Stands in for a :class:`HostClock` where raw time is wanted.

    Traced runs use it: their per-layer metrics are raw time, as measured.
    """

    samples: List[float] = []

    def sample(self) -> float:
        return 1.0

    def section(self) -> float:
        return 1.0

    def __enter__(self) -> "RawClock":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


#: Either clock: what the measuring code takes.
Clock = Union[HostClock, RawClock]


def _serve() -> None:
    for _ in sys.stdin:
        print(reference_slice(), flush=True)


if __name__ == "__main__":
    _serve()

