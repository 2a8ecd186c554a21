"""Reference kernel: fixed numpy work that tracks the speed of the machine.

The development machine is a few cores of a shared host whose speed moves by
up to 1.5x for minutes at a time as other tenants load it, so that ten runs
of one workload spread by 30% and more. Each run therefore times a fixed
kernel between its samples and scales every end-to-end time by the square
root of the kernel's slowdown, its median time over its nominal time
(``Workload.reference_ms``).

Why the square root: across spells the kernel's time moved more than the
workloads' did. In six sets of ten runs (two per workload, measured with the
full slowdown and recomputed from the recorded factors), the widest
interquartile spread over the median was 0.22 unscaled, 0.27 scaled by the
full slowdown (large-vocab, whose kernel time moved 1.7x in a set while its
training rate moved 1.5x, not always in step) and 0.18 scaled by its square
root, which halves the swing instead of cancelling it.

The kernel is one LSTM step forward and backward at the workload's width,
the weight gradient summed as an outer product, written here against numpy
alone: no change to the package can make it faster or slower. At width 32 it
is bound by numpy call overhead, as the tape and beam loops are; at width 512
by 2048x1024 matvecs and outer products, as paper-width training and decoding
are.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

TARGET_WORK = 3_000_000  # multiply-adds per call, so that a call takes 20-40 ms
SCALE_EXPONENT = 0.5  # times are scaled by slowdown ** SCALE_EXPONENT (see above)
SHARE = 0.05  # kernel time after a sample, as a share of the sample's time


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1 / (1 + np.exp(-z))


def lstm_kernel(width: int):
    """A function that runs LSTM steps forward and backward, about
    TARGET_WORK multiply-adds of them, on fixed inputs."""
    rng = np.random.default_rng(1)
    w = rng.standard_normal((4 * width, 2 * width)) * 0.1
    grad = np.zeros_like(w)
    x = rng.standard_normal(2 * width)
    steps = max(3, TARGET_WORK // w.size)

    def run() -> None:
        c = np.zeros(width)
        for _ in range(steps):
            z = w @ x
            i, f = _sigmoid(z[:width]), _sigmoid(z[width:2 * width])
            o, u = _sigmoid(z[2 * width:3 * width]), np.tanh(z[3 * width:])
            c = f * c + i * u
            h = o * np.tanh(c)
            dz = np.concatenate([i * (1 - i), f * (1 - f), o * (1 - o), 1 - u * u]) * np.tile(h, 4)
            grad[...] += np.outer(dz, x)
            w.T @ dz
    return run


class Reference:
    """Times the kernel after each sample: at least once, and until it has run
    for SHARE of the sample's time, so that long samples get as many kernel
    times per second as short ones."""

    def __init__(self, width: int, nominal_ms: float):
        self.kernel = lstm_kernel(width)
        self.nominal_ms = nominal_ms
        self.seconds: list[float] = []

    def run(self, sample_seconds: float) -> None:
        spent = 0.0
        while spent == 0.0 or spent < SHARE * sample_seconds:
            t0 = perf_counter()
            self.kernel()
            self.seconds.append(perf_counter() - t0)
            spent += self.seconds[-1]

    def slowdown(self) -> float:
        """The kernel's median time in this run over its nominal time."""
        return statistics.median(self.seconds) * 1000 / self.nominal_ms

    def scale(self) -> float:
        """The factor that end-to-end times are divided by, and rates multiplied by."""
        return self.slowdown() ** SCALE_EXPONENT
