"""Steady-state Kalman filters over sensor subsets.

Each subset gets its own stationary filter: the prediction error
covariance solves the discrete algebraic Riccati fixed point

    P = A P A' + sigma_w2 I - A P C_s' (C_s P C_s' + sigma_v2 I)^-1 C_s P A'

which is iterated from P = sigma_w2 * I with symmetrization each step.
Prediction mode returns the one-step-ahead gain; filtering mode returns
the measurement-update gain and the filtered covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import AnalysisError, ConfigError
from .model import SystemModel, Trajectory
from .observability import (
    SensorSubset,
    is_observable,
    normalize_subset,
    observability_matrix,
)

__all__ = [
    "PREDICTION",
    "FILTERING",
    "SteadyStateFilter",
    "FilterRun",
    "solve_steady_state",
    "run_filter",
    "cross_covariance_correction",
    "worst_subset",
]

PREDICTION = "prediction"
FILTERING = "filtering"


@dataclass(frozen=True)
class SteadyStateFilter:
    """Stationary Kalman filter for one sensor subset.

    ``error_cov`` is the steady prediction error covariance; in
    filtering mode ``filtered_cov`` additionally holds the posterior
    covariance and ``gain`` is the measurement-update gain L rather than
    the prediction gain K = A L.  A and C_s are carried along so the
    filter can be run without re-threading the model.
    """

    subset: SensorSubset
    mode: str
    gain: np.ndarray                 # (n, |s|)
    error_cov: np.ndarray            # (n, n)
    filtered_cov: np.ndarray | None  # (n, n), filtering mode only
    riccati_residual: float
    A: np.ndarray                    # (n, n)
    Cs: np.ndarray                   # (|s|, n)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class FilterRun:
    """Estimates x_hat(t) for t in [t_start, t_end] from one filter.

    Prediction mode estimates use outputs strictly before t; filtering
    mode estimates use outputs up to and including t.
    """

    estimates: np.ndarray  # (t_end - t_start + 1, n)
    t_start: int
    t_end: int
    mode: str
    subset: SensorSubset

    def window(self, t_start: int, count: int) -> np.ndarray:
        if t_start < self.t_start or t_start + count - 1 > self.t_end:
            raise ConfigError("requested window not covered by this run")
        off = t_start - self.t_start
        return self.estimates[off : off + count]


def _validate_mode(mode: str) -> str:
    if mode not in (PREDICTION, FILTERING):
        raise ConfigError(f"mode must be {PREDICTION!r} or {FILTERING!r}, got {mode!r}")
    return mode


def solve_steady_state(
    model: SystemModel,
    s: Iterable[int],
    mode: str = PREDICTION,
    tol: float = 1e-12,
    max_iter: int = 10**6,
) -> SteadyStateFilter:
    """Iterate the Riccati recursion to its fixed point for subset s.

    Raises AnalysisError when (A, C_s) is not observable or the
    iteration does not meet ``tol`` within ``max_iter`` steps.
    """
    mode = _validate_mode(mode)
    subset = normalize_subset(s, model.p)
    if model.sigma_v2 <= 0:
        raise ConfigError("solve_steady_state needs sigma_v2 > 0")
    if not is_observable(model, subset):
        raise AnalysisError(f"subset {subset} is not observable")

    A = model.A
    Cs = model.C[[i - 1 for i in subset]]
    n = model.n
    Q = model.sigma_w2 * np.eye(n)
    R = model.sigma_v2 * np.eye(len(subset))

    P = Q.copy()
    change = np.inf
    for _ in range(max_iter):
        S = Cs @ P @ Cs.T + R
        APC = A @ P @ Cs.T
        P_next = A @ P @ A.T + Q - APC @ np.linalg.solve(S, APC.T)
        P_next = 0.5 * (P_next + P_next.T)
        change = float(np.linalg.norm(P_next - P, "fro"))
        P = P_next
        if change <= tol:
            break
    else:
        raise AnalysisError(
            f"Riccati iteration did not converge for subset {subset}: "
            f"last change {change:.3e} > tol {tol:.3e}"
        )

    S = Cs @ P @ Cs.T + R
    residual = float(
        np.linalg.norm(
            A @ P @ A.T + Q - (A @ P @ Cs.T) @ np.linalg.solve(S, Cs @ P @ A.T) - P,
            "fro",
        )
    )
    L = P @ Cs.T @ np.linalg.inv(S)
    if mode == PREDICTION:
        gain = A @ L
        filtered = None
    else:
        gain = L
        filtered = P - L @ Cs @ P
        filtered = 0.5 * (filtered + filtered.T)
    return SteadyStateFilter(
        subset=subset,
        mode=mode,
        gain=gain,
        error_cov=P,
        filtered_cov=filtered,
        riccati_residual=residual,
        A=A.copy(),
        Cs=Cs.copy(),
    )


def run_filter(
    flt: SteadyStateFilter,
    traj: Trajectory,
    t_start: int = 0,
    t_end: int | None = None,
) -> FilterRun:
    """Run the stationary filter from x_hat(0) = 0 over the trajectory
    and return the estimates on [t_start, t_end]."""
    if t_end is None:
        t_end = traj.horizon - 1
    if not 0 <= t_start <= t_end < traj.horizon:
        raise ConfigError(
            f"estimate range [{t_start}, {t_end}] invalid for horizon {traj.horizon}"
        )
    cols = [i - 1 for i in flt.subset]
    if cols[-1] >= traj.p or flt.n != traj.n:
        raise ConfigError("filter does not match trajectory dimensions")
    n = traj.n
    Ys = traj.outputs[: t_end + 1, cols]

    est = np.empty((t_end + 1, n))
    gain_y = Ys @ flt.gain.T  # gain @ y_s(t) for every t, one matmul
    if flt.mode == PREDICTION:
        # x(t+1) = (A - K Cs) x(t) + K y(t), x(0) = 0
        Acl = flt.A - flt.gain @ flt.Cs
        x = np.zeros(n)
        for t in range(t_end + 1):
            est[t] = x
            x = Acl @ x + gain_y[t]
    else:
        # x(t) = (I - L Cs) A x(t-1) + L y(t), x(-1) = 0
        Acl = (np.eye(n) - flt.gain @ flt.Cs) @ flt.A
        x = np.zeros(n)
        for t in range(t_end + 1):
            x = Acl @ x + gain_y[t]
            est[t] = x
    est = est[t_start:]
    est.setflags(write=False)
    return FilterRun(
        estimates=est, t_start=t_start, t_end=t_end, mode=flt.mode, subset=flt.subset
    )


def cross_covariance_correction(
    model: SystemModel, s: Iterable[int], flt: SteadyStateFilter
) -> np.ndarray:
    """Correction term coupling the filtered estimate to same-time sensor
    noise in the window-residue covariance.

    Because only the first sample of each sensor's window coincides with
    the noise entering the filter update, the correction has the closed
    form sigma_v2 * E1 @ L' @ O_s', with E1 the selector that places a
    one at each sensor's window start.
    """
    subset = normalize_subset(s, model.p)
    if flt.mode != FILTERING:
        raise ConfigError("cross_covariance_correction needs a filtering-mode filter")
    if flt.subset != subset:
        raise ConfigError("filter subset does not match s")
    n, m = model.n, len(subset)
    E1 = np.zeros((n * m, m))
    for c in range(m):
        E1[c * n, c] = 1.0
    Os = observability_matrix(model, subset)
    return model.sigma_v2 * E1 @ flt.gain.T @ Os.T


def worst_subset(model: SystemModel, k: int) -> tuple[SensorSubset, float]:
    """The (p-k)-subset with the largest steady prediction error trace,
    ties broken lexicographically.  This is the best error any estimator
    can guarantee when k sensors may be silenced."""
    if not 0 <= k < model.p:
        raise ConfigError(f"need 0 <= k < p, got k={k}, p={model.p}")
    best_subset: SensorSubset | None = None
    best_trace = -np.inf
    for s in combinations(range(1, model.p + 1), model.p - k):
        flt = solve_steady_state(model, s, PREDICTION)
        trace = float(np.trace(flt.error_cov))
        if trace > best_trace:
            best_trace = trace
            best_subset = s
    assert best_subset is not None
    return best_subset, best_trace
