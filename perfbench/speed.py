"""CPU-speed probe that normalizes the benchmark's timings.

The benchmark's host is shared with other machines' work, and the speed of
one core swings by up to a factor of two within seconds; a 17 s run of fixed
work then varies by 20-30% between runs. The probe tracks that speed from
inside the process: a thread wakes every ``INTERVAL`` seconds and measures,
by its own CPU time, a fixed kernel with the mix of nesim's closed-loop
right-hand side (slicing, reshapes, a matrix-vector product, fancy-index
updates and reductions on a state of the same size). ``run.py`` pins the
process to one CPU, so the kernel runs on the core the workload runs on and
slows down with it; samples of about 1 ms track the workload's speed more
closely than shorter ones.

A time measured from ``t0`` to ``t1`` is normalized to
``(t1 - t0) * mean(REFERENCE_SAMPLE_S / sample for the samples in [t0, t1))``:
the time the same work would take on a core running the kernel at the
reference speed. The mean is taken over speeds, not over sample times: work
done over an interval is the time integral of the speed, so a mean of the
sample times would under-correct when the speed changes within the
interval. The probe costs about 2% of the workload's time.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

INTERVAL = 0.05
KERNEL_STEPS = 60
STATE_DIM = 62  # dimension of the sec5 closed-loop state
# Mean CPU time of one kernel sample while the workloads ran on the 2.1 GHz
# Xeon the benchmark was defined on, so that normalized times read close to
# raw ones there. Only its ratio to the samples matters.
REFERENCE_SAMPLE_S = 1.0e-3
MIN_SAMPLES = 10  # shorter intervals borrow the samples nearest to them


class SpeedProbe:
    """Background sampler; use as a context manager around the timed work."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (perf_counter, kernel CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        a = np.random.default_rng(0).normal(size=(STATE_DIM, STATE_DIM)) / 8.0
        diag = np.arange(4) * 5
        x0 = np.ones(STATE_DIM)
        while not self._stop.wait(INTERVAL):
            # every sample does the same arithmetic: a state carried from one
            # sample to the next would decay into subnormal numbers, far slower
            x = x0
            t0, c0 = time.perf_counter(), time.thread_time()
            for _ in range(KERNEL_STEPS):
                p = x[:16].reshape(4, 4)
                y = a @ x
                y[diag] -= 0.5 * p.sum(axis=1)
                x = np.concatenate([y[:31] * 0.9, y[31:]]) / (1.0 + np.abs(y).max())
            self._samples.append((t0, time.thread_time() - c0))

    def factor(self, t0: float, t1: float) -> float:
        """Reference speed over the speed measured between ``t0`` and ``t1``."""
        inside = [s for t, s in self._samples if t0 <= t < t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2.0
            nearest = sorted(self._samples, key=lambda ts: abs(ts[0] - mid))[:MIN_SAMPLES]
            inside = [s for _, s in nearest]
        if not inside:
            raise RuntimeError("the speed probe took no samples")
        return statistics.fmean(REFERENCE_SAMPLE_S / s for s in inside)

    def normalized(self, intervals) -> list[float]:
        """Normalized durations of ``(t0, t1)`` intervals, once sampling is over."""
        return [(t1 - t0) * self.factor(t0, t1) for t0, t1 in intervals]
