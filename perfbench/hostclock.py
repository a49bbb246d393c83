"""Job times in reference-host seconds, corrected for the host's speed swings.

On a shared virtual machine the processor's speed can change by a factor
of 1.5 to 1.9 within seconds, as other tenants come and go; a job timed
in plain seconds then measures the neighbours as much as the program.
`HostClock` times a fixed numpy kernel, which calls no protprompt code,
about every TICK_S seconds while a job runs (at the benchmark's probe
hooks) and once at either end. Each stretch of job time between two
kernel runs is scaled by KERNEL_REF_S over the kernel time measured at
the stretch's end, and the kernel's own time is left out. A change to
protprompt therefore moves the scaled times in full, while a slower spell
of the host moves them little.

The kernel is a small copy of the encoder's work: a tape of matrix
products, row softmaxes and elementwise operations on encoder-sized
arrays, whose backward closures then run in reverse. Timed back to back
with other candidate kernels over two to three minutes per workload, it
cut the spread of job times (quartiles over median) from 0.12-0.21 to
0.02-0.05; a loop of elementwise operations, small matrix products, a
pure-Python loop and a pass over a few megabytes each did worse on at
least one workload. Run alone between stretches of protprompt work, one
pass mostly measures cold caches and missed most of pretrain's slowdowns,
so the kernel repeats the pass REPEATS times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the kernel's seconds on the reference host (2-vCPU Xeon VM,
# scipy-openblas 0.3.31, one thread) when nothing else ran on it
KERNEL_REF_S = 0.003
TICK_S = 0.3
REPEATS = 8  # passes per kernel run, so that it runs warm

_rng = np.random.default_rng(0)
_X = _rng.random((66, 32))
_W = _rng.random((32, 32)) / 8


def kernel() -> float:
    """Seconds taken by one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        tape, h = [], _X
        for _ in range(12):
            a = h @ _W
            e = np.exp(a - a.max(axis=1, keepdims=True))
            s = e / e.sum(axis=1, keepdims=True)
            h = s * h + h
            tape.append(lambda g, s=s: (g * s) @ _W.T)
        g = np.ones_like(h)
        for backward in reversed(tape):
            g = backward(g)
    return time.perf_counter() - t0


def speed() -> float:
    """Reference seconds per host second right now: median of 5 kernel runs."""
    return KERNEL_REF_S / statistics.median(kernel() for _ in range(5))


class HostClock:
    """Maps perf_counter stamps taken between start() and stop() to
    reference seconds since start()."""

    def __init__(self):
        self._ticking = True
        self._raw: list[float] = []
        self._ref: list[float] = []
        self._due = float("inf")

    def start(self, ticking: bool = True) -> None:
        """Calibrate once; with `ticking`, tick() calibrates again every TICK_S."""
        self._ticking = ticking
        self._raw, self._ref = [], []
        self._calibrate()

    def tick(self) -> None:
        """Run the kernel if TICK_S has passed since the last run."""
        if time.perf_counter() >= self._due:
            self._calibrate()

    def stop(self) -> None:
        self._calibrate()
        self._due = float("inf")

    def _calibrate(self) -> None:
        t0 = time.perf_counter()
        factor = KERNEL_REF_S / kernel()
        t1 = time.perf_counter()
        ref = self._ref[-1] + (t0 - self._raw[-1]) * factor if self._raw else 0.0
        # the kernel's own time maps to no reference time
        self._raw += [t0, t1]
        self._ref += [ref, ref]
        self._due = t1 + TICK_S if self._ticking else float("inf")

    def to_ref(self, stamps) -> np.ndarray:
        """Reference seconds since start() of perf_counter stamps."""
        return np.interp(np.asarray(stamps, dtype=float), self._raw, self._ref)
