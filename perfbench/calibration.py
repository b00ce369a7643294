"""Host calibration: fixed kernels timed next to every measured interval.

The shared host drifts in speed over minutes, and CPU time tracks wall time,
so neither raw wall time nor process CPU time is comparable between runs.
Fixed kernels that use no swtr code are timed before and after each
interval, and the interval is expressed in host-calibrated seconds,
``wall * cal_ref / cal``, where ``cal_ref`` is the kernels' duration on the
reference host.

The kernels follow the pipeline's instruction mix, because host slowdowns do
not hit every mix alike:

* the scalar kernel is small complex ``np.convolve`` calls plus dict/tuple
  work in the interpreter, the mix of the recursion and the Laurent algebra;
* the array kernel is elementwise complex arithmetic on arrays larger than
  the L2 cache, the mix of the vectorised kernel and quadrature evaluations
  that take about half of a verifier op.
"""

import statistics
import time

import numpy as np

# Median kernel durations on the reference host (2-vCPU x86-64 VM, OpenBLAS
# pinned to one thread, numpy 2.4, CPython 3.11).  A calibrated second is a
# wall second at that host speed.
CAL_REF_SCALAR_S = 0.0060
CAL_REF_ARRAY_S = 0.0070

# Kernel runs per sample; a sample is their median, so one run cut short or
# stretched by a neighbour's burst does not skew the ops next to it.
_CAL_RUNS = 3
_SCALAR_LOOPS = 120
_ARRAY_POINTS = 1 << 16
_ARRAY_LOOPS = 2

# The guard tolerates clock-read skew only; a second busy thread shows up as
# process CPU time well beyond the calling thread's.
_GUARD_ABS_S = 2e-4
_GUARD_REL = 0.02

_SEQ = (np.arange(1, 25) * (0.5 + 0.25j)) / 24.0


class CalibrationTainted(RuntimeError):
    """Another thread of the process used CPU time during a calibration sample."""


def scalar_kernel(loops=_SCALAR_LOOPS):
    """Small convolutions and dict/tuple work; returns a checksum."""
    acc = {}
    total = 0j
    for i in range(loops):
        c = np.convolve(_SEQ, _SEQ[::-1] * (1.0 + 1e-3 * (i % 7)))
        key = (i % 13, (i * 7) % 11)
        for j in range(0, 47, 4):
            k2 = (key, j)
            acc[k2] = acc.get(k2, 0j) + complex(c[j])
        total += sum(v for k, v in acc.items() if k[1] == (i % 12) * 4)
    return total


def array_kernel(points=_ARRAY_POINTS, loops=_ARRAY_LOOPS):
    """Elementwise complex arithmetic on large arrays; returns a checksum."""
    z = 0.7 * np.exp(1j * np.linspace(0.0, 6.0, points))
    total = 0j
    for i in range(loops):
        y = np.sqrt(z * z - 0.3 * (i + 1))
        total += np.sum((y * z + 1.0) / (2.0 * y * (z - 0.1) ** 2))
    return total


def _timed(kernel):
    p0, t0 = time.process_time(), time.thread_time()
    w0 = time.perf_counter()
    kernel()
    w1 = time.perf_counter()
    dp, dt = time.process_time() - p0, time.thread_time() - t0
    if dp - dt > max(_GUARD_ABS_S, _GUARD_REL * dt):
        raise CalibrationTainted(
            f"process CPU {dp:.6f} s vs thread CPU {dt:.6f} s during calibration")
    return w1 - w0


def sample(with_arrays=False):
    """One calibration sample in seconds: the median scalar-kernel run, plus
    the median array-kernel run when ``with_arrays``.

    Raises CalibrationTainted when, during a kernel run, process CPU time
    exceeds the calling thread's CPU time by more than clock-read skew: a
    background thread was busy and would slow the kernels, flattering every
    calibrated time.
    """
    cal = statistics.median(_timed(scalar_kernel) for _ in range(_CAL_RUNS))
    if with_arrays:
        cal += statistics.median(_timed(array_kernel) for _ in range(_CAL_RUNS))
    return cal


def reference(with_arrays=False):
    """cal_ref: the duration of ``sample(with_arrays)`` on the reference host."""
    return CAL_REF_SCALAR_S + (CAL_REF_ARRAY_S if with_arrays else 0.0)


def calibrated(wall_s, cal_before_s, cal_after_s, cal_ref_s):
    """Wall time in host-calibrated seconds, using the mean adjacent sample."""
    cal = 0.5 * (cal_before_s + cal_after_s)
    if cal <= 0.0:
        raise ValueError("calibration samples must be positive")
    return wall_s * cal_ref_s / cal
