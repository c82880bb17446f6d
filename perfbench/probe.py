"""Host-speed probe: a fixed kernel timed during each untraced pass.

The benchmark's host is a shared VM whose speed switches by about 40% within
seconds and drifts over minutes; a pass's wall time follows it. While a pass
runs, a SIGALRM every PERIOD_S seconds runs the workload's probe kernel once
(1 to 2 ms of Python, numpy or JSON work that does not involve sparsemm) and
records how long it took. The mean of those times says how fast the host ran
during that pass. `scaled` subtracts the probe's own time from the pass's
wall time and rescales the rest to the speed at which the kernel takes its
reference time.

A Python signal handler runs between bytecodes of the main thread, so a
probe never interrupts a numpy or JSON call; it waits for the call to return.
Each workload names the kernel whose slowdown tracked its passes best. The
correction is partial: kernel and program do not slow down by exactly the same
factor (see ABOUT.md).
"""

from __future__ import annotations

import json
import signal
import time

import numpy as np

PERIOD_S = 0.1

_rng = np.random.default_rng(7)
_A = _rng.standard_normal((48, 64))
_B = _rng.standard_normal((64, 96))
_DOC = {"v": [float(x) for x in _rng.random(600)], "n": list(range(200))}


def json_kernel() -> int:
    """A JSON round trip of floats, like the artifacts of `cli-flow`."""
    return len(json.loads(json.dumps(_DOC))["v"])


def mixed_kernel() -> int:
    """Interpreter loop, small numpy ops and a JSON round trip, like the
    compute of the `bench` workloads."""
    total = 0
    for i in range(2000):
        total += (i * 7) % 13
    for _ in range(6):
        c = _A @ _B
        np.argsort(np.exp(c - c.max()).sum(axis=0))
    return total + json_kernel()


# name -> (kernel, its typical mean time during a pass, measured on the 2-vCPU
# Intel Xeon VM the benchmark was defined on); the reference time sets the
# scale of `pass_s`, not its spread
KERNELS = {
    "json": (json_kernel, 1.0e-3),
    "mixed": (mixed_kernel, 1.8e-3),
}


class Probe:
    def __init__(self, kernel: str):
        self.kernel, self.ref_s = KERNELS[kernel]
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.inside_s = sum(self.samples)
        if not self.samples:  # a pass shorter than PERIOD_S
            self._sample()
        return False

    def scaled(self, wall_s: float) -> float:
        """`wall_s` without the probe's own time, at the reference speed."""
        mean = sum(self.samples) / len(self.samples)
        return (wall_s - self.inside_s) * self.ref_s / mean
