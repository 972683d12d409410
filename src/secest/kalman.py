"""Steady-state Kalman filters over sensor subsets.

Each subset gets its own stationary filter: the prediction error
covariance P solves the discrete algebraic Riccati equation

    P = A P A' + sigma_w2 I - A P C_s' (C_s P C_s' + sigma_v2 I)^-1 C_s P A'

found with the structure-preserving doubling algorithm (Anderson 1978;
Chu, Fan, Lin and Wang 2004).  In control form, A_0 = A', G_0 =
C_s' C_s / sigma_v2 and H_0 = sigma_w2 I; each step solves
(I + G H) W = [A_k, G_k] once and sets

    H <- H + A_k' H W_A,   G <- G + A_k W_G A_k',   A_k <- A_k W_A,

so H_k is the 2^k-th iterate of the Riccati recursion from P = 0 and
P = lim H_k.  The doubling stops once a step changes H by at most
max(RICCATI_TOL, n eps ||P||_F) in Frobenius norm (the relative floor is
what float roundoff allows once P is large), usually within 8 steps,
and raises AnalysisError at once on a non-finite or numerically singular
quantity.  Prediction mode returns the one-step-ahead gain; filtering
mode returns the measurement-update gain and the filtered covariance.

Both modes run the same estimate recursion x <- closed_loop x + gain y
through the exact two-level chunked scan that also runs `simulate`'s
state recursion (`secest.model._linear_scan`), with no term truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import AnalysisError, ConfigError, _finite, _integer
from .model import SystemModel, Trajectory, _linear_scan, _scan_buffer
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

RICCATI_TOL = 1e-12
RICCATI_MAX_DOUBLINGS = 64


@dataclass(frozen=True)
class SteadyStateFilter:
    """Stationary Kalman filter for one sensor subset.

    ``error_cov`` is the steady prediction error covariance; in
    filtering mode ``filtered_cov`` additionally holds the posterior
    covariance and ``gain`` is the measurement-update gain L rather than
    the prediction gain K = A L.  ``closed_loop`` is the estimate
    recursion's state matrix: A - K C_s in prediction mode,
    (I - L C_s) A in filtering mode.  ``iterations`` counts the doubling
    steps the Riccati solve took.
    """

    subset: SensorSubset
    mode: str
    gain: np.ndarray                 # (n, |s|)
    error_cov: np.ndarray            # (n, n)
    filtered_cov: np.ndarray | None  # (n, n), filtering mode only
    riccati_residual: float
    closed_loop: np.ndarray          # (n, n)
    iterations: int                  # doubling steps taken

    @property
    def n(self) -> int:
        return self.closed_loop.shape[0]


@dataclass(frozen=True)
class FilterRun:
    """Estimates x_hat(t) for t in [t_start, t_end] from one filter.

    Prediction mode estimates use outputs strictly before t; filtering
    mode estimates use outputs up to and including t.
    """

    estimates: np.ndarray  # (t_end - t_start + 1, n)
    t_start: int
    t_end: int

    def window(self, t_start: int, count: int) -> np.ndarray:
        if t_start < self.t_start or t_start + count - 1 > self.t_end:
            raise ConfigError("requested window not covered by this run")
        off = t_start - self.t_start
        return self.estimates[off : off + count]


def _check_solvable(model: SystemModel, subset: SensorSubset) -> None:
    """The preconditions of `solve_steady_state`: ConfigError without
    sensor noise and AnalysisError when (A, C_s) is not observable."""
    if model.sigma_v2 <= 0:
        raise ConfigError("solve_steady_state needs sigma_v2 > 0")
    if not is_observable(model, subset):
        raise AnalysisError(f"subset {subset} is not observable")


def solve_steady_state(
    model: SystemModel,
    s: Iterable[int],
    mode: str = PREDICTION,
) -> SteadyStateFilter:
    """Solve the Riccati equation for subset s by doubling.

    Raises AnalysisError when (A, C_s) is not observable, a Riccati
    quantity is not finite or numerically singular, or the doubling does
    not converge within RICCATI_MAX_DOUBLINGS steps.
    """
    if mode not in (PREDICTION, FILTERING):
        raise ConfigError(f"mode must be {PREDICTION!r} or {FILTERING!r}, got {mode!r}")
    subset = normalize_subset(s, model.p)
    _check_solvable(model, subset)
    return _doubling_solve(model, subset, mode)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused in _finite
def _doubling_solve(model: SystemModel, subset: SensorSubset, mode: str) -> SteadyStateFilter:
    """The doubling of `solve_steady_state`, for a subset past `_check_solvable`."""
    A = model.A
    Cs = model.C[[i - 1 for i in subset]]
    n = model.n
    Q = model.sigma_w2 * np.eye(n)
    R = model.sigma_v2 * np.eye(len(subset))

    Ak = A.T
    G = Cs.T @ Cs / model.sigma_v2
    P = Q  # H_0; each step rebinds P to H_k
    eye = np.eye(n)
    floor = n * np.finfo(float).eps
    try:
        for iterations in range(1, RICCATI_MAX_DOUBLINGS + 1):
            W = np.linalg.solve(eye + G @ P, np.hstack([Ak, G]))
            WA, WG = W[:, :n], W[:, n:]
            dP = Ak.T @ P @ WA
            dP = 0.5 * (dP + dP.T)
            dG = Ak @ WG @ Ak.T
            P = P + dP
            G = G + 0.5 * (dG + dG.T)
            Ak = Ak @ WA
            change = float(np.linalg.norm(dP, "fro"))
            size = float(np.linalg.norm(P, "fro"))  # finite only if P is
            _finite([change, size], f"Riccati doubling steps of subset {subset}")
            tol = max(RICCATI_TOL, floor * size)
            if change <= tol:
                break
        else:
            raise AnalysisError(
                f"Riccati doubling did not converge for subset {subset}: "
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
    except np.linalg.LinAlgError as exc:
        # a noise variance far from the scale of P loses I + G H or S to roundoff
        raise AnalysisError(f"Riccati solve for subset {subset} met a singular matrix") from exc
    _finite(residual, f"Riccati residual terms of subset {subset}")
    if mode == PREDICTION:
        gain = A @ L
        filtered = None
        closed_loop = A - gain @ Cs
    else:
        gain = L
        filtered = P - L @ Cs @ P
        filtered = 0.5 * (filtered + filtered.T)
        closed_loop = (np.eye(n) - L @ Cs) @ A
    return SteadyStateFilter(
        subset=subset,
        mode=mode,
        gain=gain,
        error_cov=P,
        filtered_cov=filtered,
        riccati_residual=residual,
        closed_loop=closed_loop,
        iterations=iterations,
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

    # Rows xs[r] = xs[r - 1] closed_loop' + u[r], with u[0] = 0 and u[r] =
    # (gain y_s(r - 1))'.  A filtering estimate uses y_s(t), so x_hat(t) =
    # xs[t + 1]; a prediction estimate does not, so x_hat(t) = xs[t].  xs
    # is allocated before the temporaries, so freeing them can shrink the
    # heap.
    lag = int(flt.mode == FILTERING)
    T = t_end + 1 + lag
    chunks = _scan_buffer(T, traj.n)
    xs = chunks.reshape(-1, traj.n)
    np.matmul(traj.outputs[: T - 1, cols], flt.gain.T, out=xs[1:T])
    _linear_scan(chunks, flt.closed_loop.T)
    est = xs[t_start + lag : T]
    est.setflags(write=False)
    return FilterRun(estimates=est, t_start=t_start, t_end=t_end)


def cross_covariance_correction(model: SystemModel, flt: SteadyStateFilter) -> np.ndarray:
    """Correction term coupling the filtered estimate to same-time sensor
    noise in the window-residue covariance.

    Because only the first sample of each sensor's window coincides with
    the noise entering the filter update, the correction has the closed
    form sigma_v2 * E1 @ L' @ O_s', with E1 the selector that places a
    one at each sensor's window start.  So the only nonzero rows are the
    window starts, row c * n holding sigma_v2 * (L' O_s')[c], and they are
    written directly.
    """
    if flt.mode != FILTERING:
        raise ConfigError("cross_covariance_correction needs a filtering-mode filter")
    nm = model.n * len(flt.subset)
    D = np.zeros((nm, nm))
    D[:: model.n] = model.sigma_v2 * flt.gain.T @ observability_matrix(model, flt.subset).T
    return D


def worst_subset(model: SystemModel, k: int) -> tuple[SensorSubset, float]:
    """The (p-k)-subset with the largest steady prediction error trace,
    ties broken lexicographically.  This is the best error any estimator
    can guarantee when k sensors may be silenced."""
    k = _integer(k, "k")
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
