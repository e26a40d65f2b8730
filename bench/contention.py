"""Host CPU contention probe.

On a shared host, other tenants' load slows this process by up to 2.5x,
switching on and off within fractions of a second, so the wall time of a
pass depends on how much of it happened to overlap their load.  The probe
measures that directly: a timer signal interrupts the main thread every
INTERVAL seconds and times a fixed kernel of small numpy operations (the
same mix of interpreter overhead and tiny arrays as the library's inner
loops).  The kernel's slowdown over an interval is its mean time there
over its uncontended time (see ``baseline``).  The library's code is
slowed less than the kernel: regressing the raw wall time of identical
passes on the kernel's slowdown k gave raw = T0 * (1 + beta (k - 1)) with
beta = 0.67 (rate_smooth_ls_long, 40 passes) and 0.69 (check_suite, 36
passes), k ranging 1.1-2.7.  ``slowdown`` applies that fit with
SENSITIVITY = 0.7, and dividing a pass's wall time by it estimates the
wall time on an uncontended CPU.

The handler runs in the main thread between bytecodes: no thread or
process is added, and it cannot interleave with the library's own state.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.01
# Kernel time on an uncontended core of the reference host (2-vCPU Intel
# Xeon VM, python 3.11, numpy 2.4).  A run that never sees an uncontended
# moment would otherwise take its own contended speed as the baseline.
KERNEL_REF_S = 37.0e-6
SENSITIVITY = 0.7


class ContentionProbe:
    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._a = np.random.default_rng(0).standard_normal((5, 10))
        self._x = np.ones(10)
        self._saved = None

    def _sample(self, signum, frame) -> None:
        a, x = self._a, self._x
        t0 = time.perf_counter()
        for i in range(40):
            float(a[i % 5] @ x)
        self.times.append(t0)
        self.kernel_s.append(time.perf_counter() - t0)

    def __enter__(self) -> "ContentionProbe":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def slowdown(self, t0: float, t1: float) -> float:
        """Estimated slowdown of the library's code over [t0, t1]; 1.0 when
        no sample fell inside."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi <= lo:
            return 1.0
        k = float(np.mean(self.kernel_s[lo:hi])) / self.baseline()
        return 1.0 + SENSITIVITY * (k - 1.0)

    def baseline(self) -> float:
        """Uncontended kernel time: the run's 1st percentile, or the
        reference host's when the run never got that fast."""
        return min(float(np.percentile(self.kernel_s, 1)), KERNEL_REF_S)

    def summary(self) -> dict:
        us = 1e6 * np.asarray(self.kernel_s)
        return {
            "samples": int(us.size),
            "kernel_us_p1": float(np.percentile(us, 1)) if us.size else None,
            "kernel_us_p50": float(np.median(us)) if us.size else None,
            "baseline_us": 1e6 * self.baseline() if us.size else None,
        }
