"""Host-speed sampling: a fixed reference kernel timed every TICK_S while
the benchmark runs, so that its timed regions can be scaled to reference
host speed.

The benchmark runs on a virtual machine whose host is shared, and the
host's speed changes within seconds and drifts over minutes: the same
iteration on the same code can run 40% faster or slower ten minutes
later, in process CPU time as well as in wall time (no steal time is
recorded). Timed in quarter-second windows, each vCPU switches between a
fast and a slow state (the kernel below takes about 0.65 or 1.05 times
REFERENCE_S) every one to three seconds, independently of the other
vCPU, and the share of time spent slow drifts.

Inside `sampling()`, a SIGALRM every TICK_S runs the kernel (numpy on
small matrices plus plain interpreter work, as fcrn spends its time, but
none of fcrn's code) once in the main thread, between two bytecodes of
whatever runs, so on the vCPU the workload runs on at that instant. A
`Clock` region leaves the kernel's runs out of its seconds and scales
them to reference speed by the samples taken inside it:

    seconds at reference speed = seconds / slowness
    slowness = mean kernel time of the region's samples / REFERENCE_S

A region too short to hold a sample uses the last sample before its end.
On 2 vCPUs of a 2.0 GHz Xeon, the slowness sampled inside 2.2-second
cli-functional training calls correlated 0.92 with their duration, and
scaling cut the calls' spread (standard deviation over mean) from 0.074
to 0.032 within one run. A slow period of the host slows the kernel and
the workload alike and cancels out; a change to fcrn moves only the
workload. The kernel's runs take about 3% of the run.
"""
from __future__ import annotations

import signal
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# median time of one kernel() call on the reference machine (2 vCPUs of a
# 2.0 GHz Intel Xeon, Python 3.11, numpy 2.4 with one OpenBLAS thread), so
# scaled figures read as seconds on that machine at its usual speed
REFERENCE_S = 0.0036
TICK_S = 0.1  # interval between two samples

_rng = np.random.default_rng(20240601)
_X = _rng.standard_normal((64, 16))
_W1 = _rng.standard_normal((16, 32)) * 0.25
_W2 = _rng.standard_normal((32, 4)) * 0.25


def kernel():
    """Gradient steps of a small two-layer network, then dictionary work."""
    w1, w2 = _W1, _W2
    for _ in range(50):
        h = np.tanh(_X @ w1)
        g = h @ w2 - 1.0
        gh = (g @ w2.T) * (1.0 - h * h)
        w2 = w2 - 1e-3 * (h.T @ g)
        w1 = w1 - 1e-3 * (_X.T @ gh)
    acc = {}
    for i in range(8000):
        acc[i % 17] = acc.get(i % 17, 0) + i
    return float(w1.sum() + w2.sum()) + acc[0]


_samples = []  # kernel seconds, one per tick
_spent = 0.0  # seconds spent in sampling, left out of every region


def _tick(signum, frame):
    global _spent
    t0 = time.perf_counter()
    kernel()
    dt = time.perf_counter() - t0
    _samples.append(dt)
    _spent += dt


@contextmanager
def sampling():
    """Sample the host's speed now and every TICK_S until the block ends."""
    _tick(None, None)
    previous = signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def slowness():
    """The host's mean slowness over every sample so far (None without any)."""
    return statistics.mean(_samples) / REFERENCE_S if _samples else None


class Clock:
    """Seconds spent in named regions, as measured (`seconds`) and at
    reference speed (`scaled`, empty when nothing was sampled)."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.scaled = defaultdict(float)

    @contextmanager
    def region(self, name):
        n0, spent0 = len(_samples), _spent
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0 - (_spent - spent0)
            inside = _samples[n0:] or _samples[-1:]
            self.seconds[name] += elapsed
            if inside:
                self.scaled[name] += elapsed * REFERENCE_S / statistics.mean(inside)
