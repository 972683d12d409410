"""Fixed reference kernels that measure how fast the core runs right now.

The benchmark's host is shared: the same work, timed in CPU seconds of
this process, takes a third longer or shorter from one minute to the next
as other tenants come and go.  So the benchmark times two fixed kernels in
the gaps between ops, in the same process and the same minutes, and turns
each op's CPU seconds into nominal seconds: CPU seconds times how much
faster than now the kernels ran on the reference box.  A change to secest
moves nominal seconds; a change in the host's load mostly does not.

The kernels use nothing from secest, so no change to the program can move
them.  They stand for the two kinds of work secest spends its time on,
which a busy host slows by different amounts:

- ``interp``: a Python loop of small-matrix numpy steps, as in the Kalman
  filter loop, and plain Python arithmetic;
- ``dense``: one product of a 300 x 2500 matrix with its transpose, the
  size of a subset noise covariance in the search workload.

Each workload weighs the two by the share of its time spent in large
dense products (``dense_share``, taken from its traced layer profile).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median CPU seconds of one run of each kernel on the reference box (2-core
# Xeon, one BLAS thread, shared); constant scales, not targets.
NOMINAL_INTERP_S = 0.0045
NOMINAL_DENSE_S = 0.0055
# After each op, callers sample for this share of the op's CPU time.
SHARE = 0.15

_RNG = np.random.default_rng(12345)
_WIDE = _RNG.standard_normal((300, 2500))
_SMALL = _RNG.standard_normal((20, 20)) / 10.0
_EYE_SMALL = np.eye(20)


def sample_cpu_s() -> tuple[float, float]:
    """CPU seconds of one run of each kernel: (interp, dense)."""
    c0 = time.process_time()
    x, P = np.ones(20), _EYE_SMALL
    for _ in range(150):
        x = _SMALL @ x + 0.1
        P = _SMALL @ P @ _SMALL.T + _EYE_SMALL
        x = np.linalg.solve(P, x)
    total = 0
    for i in range(15000):
        total += i % 7
    c1 = time.process_time()
    _WIDE @ _WIDE.T
    return c1 - c0, time.process_time() - c1


class Reference:
    """Kernel samples taken over one measurement, grouped by the gap
    between ops they were taken in."""

    def __init__(self, dense_share: float):
        self.dense_share = dense_share
        self.gaps: list[list[float]] = []  # per gap: nominal / measured, per sample

    def sample(self, budget_s: float = 0.0) -> None:
        """Sample until ``budget_s`` CPU seconds are spent, at least once;
        the samples form the next gap."""
        w = self.dense_share
        gap: list[float] = []
        spent = 0.0
        while not gap or spent < budget_s:
            interp, dense = sample_cpu_s()
            spent += interp + dense
            gap.append(1.0 / ((1.0 - w) * interp / NOMINAL_INTERP_S + w * dense / NOMINAL_DENSE_S))
        self.gaps.append(gap)

    def nominal(self, cpu_s: float, gap: int) -> float:
        """``cpu_s`` spent between gaps ``gap`` and ``gap + 1`` in nominal
        seconds (after the last gap: by that gap alone)."""
        around = self.gaps[gap] + self.gaps[min(gap + 1, len(self.gaps) - 1)]
        return cpu_s * statistics.median(around)

    def scale(self) -> float:
        """Median factor from CPU to nominal seconds over the measurement."""
        return statistics.median(x for gap in self.gaps for x in gap)
