"""Block-residue detector for effective sensor attacks.

For a subset s the detector runs the stationary Kalman filter on the raw
outputs, forms the window residues

    r_s(t) = ybar_s(t) - O_s x_hat_s(t),

and compares the sample average of r_s r_s' over the test window against
its exact attack-free expectation:

    prediction:  O_s P O_s' + M_s
    filtering:   O_s F O_s' + M_s - D - D'

where M_s is the window noise covariance and D the same-time
cross-covariance correction.  The test is one-sided and elementwise: the
subset passes when no entry of (sample - expected) exceeds the threshold
eta.  An attack that inflates the realized estimation error beyond the
attack-free optimum by more than epsilon pushes some entry of the sample
average up, so a suitably small eta catches it; `auto_threshold` applies
the largest eta with that guarantee.

The deviation (sample - expected) is computed without the (N, n|s|)
residue matrix or the expected matrix.  With Ybar_s and X_hat the window
outputs and estimates stacked by rows, F the covariance above (P or the
filtered one) and

    K = X_hat' Ybar_s / N - (X_hat' X_hat / N - F) O_s' / 2,

the deviation is (Ybar' Ybar / N - M)[s, s] - O_s K - K' O_s'.  In
filtering mode D + D' folds into the same product: K loses
sigma_v2 L[:, c] in column c n, the start of sensor c's window.  The
first term does not depend on the filter: its Gram Ybar' Ybar over all
sensors is built once per trajectory (`block_output_gram`), and each
subset reads its rows and columns.

Nearly every tested subset fails, so a test first screens the deviation's
diagonal, diag(moment)[s] - 2 rowsum(O_s * K'), and fails at once on an
entry above eta by more than its rounding bound; such a failure forms its
deviation, bit for bit, only when read.  The flags are the full test's.

Every test runs through a `SubsetBank`, which owns the per-subset
quantities of one model: O_s is a row selection of the model's
observability stack, M_s is cut from M by the helper that cuts the
moment's block, and each subset's filter and threshold are computed once.
`SubsetBank.detector(traj)` holds one trajectory's window moment
Ybar' Ybar / N - M and tests subsets against it; `attack_detect` tests
one subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable

import numpy as np

from .errors import AnalysisError, ConfigError
from .kalman import (
    FILTERING,
    PREDICTION,
    FilterRun,
    SteadyStateFilter,
    cross_covariance_correction,
    run_filter,
    solve_steady_state,
)
from .model import SystemModel, Trajectory
from .observability import (
    SensorSubset,
    block_output_gram,
    full_subset,
    min_gram_eigenvalue,
    normalize_subset,
    observability_matrix,
    noise_structure,
)

__all__ = [
    "DetectorConfig",
    "ResidueReport",
    "SubsetBank",
    "auto_threshold",
    "attack_detect",
    "residue_report",
    "expected_residue_matrix",
    "effective_attack_oracle",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Window, threshold, and mode of the residue test.

    ``eta`` is the elementwise threshold; leave it None to derive the
    largest admissible value from (epsilon, k) per subset.  ``k`` is the
    attack bound: the searches hypothesize at most k attacked sensors.
    ``N`` is the window length (rounded up to a multiple of n at use
    time); ``t1`` the window start, late enough for the filter transient
    to die out.
    """

    epsilon: float
    N: int = 20000
    t1: int = 200
    mode: str = PREDICTION
    eta: float | None = None
    k: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.N < 1 or self.t1 < 0:
            raise ConfigError("N must be >= 1 and t1 >= 0")
        if self.mode not in (PREDICTION, FILTERING):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.eta is None and self.k is None:
            raise ConfigError("either eta or k (for the auto threshold) is required")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0):
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")
        if self.k is not None and self.k < 0:
            raise ConfigError(f"k must be nonnegative, got {self.k}")

    def window_length(self, n: int) -> int:
        """N rounded up to the next multiple of the state dimension."""
        return int(math.ceil(self.N / n) * n)


class ResidueReport:
    """Outcome of one residue test.

    ``deviation`` is the (n|s|)^2 sample - expected average of r r' and
    ``max_deviation`` its largest entry.  A failure settled by the diagonal
    screen gives None for both and a ``build``, which holds the window
    moment; both are then formed on first read, as are ``sample_matrix``
    and ``expected_matrix``."""

    def __init__(
        self, subset: SensorSubset, mode: str, deviation: np.ndarray | None,
        max_deviation: float | None, eta: float, passed: bool, per_sensor_mu: dict[int, float],
        n_samples: int, t1: int, expectation: Callable, build: Callable | None = None
    ):
        self.subset, self.mode, self.eta, self.passed = subset, mode, eta, passed
        self.per_sensor_mu, self.n_samples, self.t1 = per_sensor_mu, n_samples, t1
        self.expectation, self._build = expectation, build
        if deviation is not None:
            self.deviation, self.max_deviation = deviation, max_deviation

    @cached_property
    def deviation(self) -> np.ndarray:
        return self._build()

    @cached_property
    def max_deviation(self) -> float:
        return float(self.deviation.max())

    @cached_property
    def expected_matrix(self) -> np.ndarray:
        """Attack-free expectation of r r'."""
        return self.expectation()

    @cached_property
    def sample_matrix(self) -> np.ndarray:
        """Sample average of r r' over the window."""
        return self.deviation + self.expected_matrix

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "mode": self.mode,
            "sample_matrix": self.sample_matrix.tolist(),
            "expected_matrix": self.expected_matrix.tolist(),
            "max_deviation": self.max_deviation,
            "eta": self.eta,
            "passed": self.passed,
            "per_sensor_mu": {str(i): v for i, v in self.per_sensor_mu.items()},
            "n_samples": self.n_samples,
            "t1": self.t1,
        }


def auto_threshold(
    model: SystemModel, s: Iterable[int], k: int, epsilon: float
) -> float:
    """Largest admissible elementwise threshold for subset s against an
    adversary on at most k sensors:

        eta = min_gram_eigenvalue(s, k) * epsilon / (3 n (|s| - k))
    """
    subset = normalize_subset(s, model.p)
    if len(subset) <= k:
        raise ConfigError(f"need |s| > k, got |s|={len(subset)}, k={k}")
    lam = min_gram_eigenvalue(model, subset, k)
    if lam <= 0.0:
        raise AnalysisError(
            f"some {len(subset) - k}-sensor subset of {subset} is unobservable; "
            "no positive threshold exists"
        )
    return lam * epsilon / (3.0 * model.n * (len(subset) - k))


class SubsetBank:
    """Steady-state Kalman filters and thresholds over the sensor subsets
    of one model, and the residue test against them.

    The full-sensor window noise covariance M and each sensor's
    lambda_max(O_i' O_i) are built once; a subset's M_s is its block of
    M and its O_s a row selection of the model's observability stack.
    Filters and thresholds are kept on first use; nothing of size
    (n|s|)^2 is kept.  `detector(traj)` tests subsets of one trajectory:
    it holds that trajectory's window moment, so detectors of different
    trajectories can share one bank.
    """

    def __init__(self, model: SystemModel, cfg: DetectorConfig):
        self.model = model
        self.cfg = cfg
        self.N = cfg.window_length(model.n)
        self._cov = noise_structure(model, full_subset(model.p)).cov
        blocks = model.observability_stack.reshape(model.p, model.n, model.n)
        maxima = np.linalg.eigvalsh(np.stack([Oi.T @ Oi for Oi in blocks]))[:, -1]
        self.gram_maxima = {i: float(lam) for i, lam in enumerate(maxima, start=1)}
        self._filters: dict[SensorSubset, SteadyStateFilter] = {}
        self._etas: dict[SensorSubset, float] = {}

    def filter(self, s: SensorSubset) -> SteadyStateFilter:
        flt = self._filters.get(s)
        if flt is None:
            flt = solve_steady_state(self.model, s, self.cfg.mode)
            self._filters[s] = flt
        return flt

    def eta(self, s: SensorSubset) -> float:
        """Threshold of subset s: ``cfg.eta``, or else its auto threshold."""
        cfg = self.cfg
        if cfg.eta is not None:
            return cfg.eta
        eta = self._etas.get(s)
        if eta is None:
            eta = auto_threshold(self.model, s, cfg.k, cfg.epsilon)
            self._etas[s] = eta
        return eta

    def prewarm(self, subsets: Iterable[Iterable[int]]) -> None:
        """Solve and keep the filters of ``subsets``."""
        for s in subsets:
            self.filter(normalize_subset(s, self.model.p))

    def window_moment(self, traj: Trajectory) -> np.ndarray:
        """Ybar' Ybar / N - M over all sensors for the test window of
        ``traj``: the part of every subset's deviation that does not
        depend on its filter.  Raises ConfigError when the window and its
        n - 1 lookahead do not fit in the trajectory."""
        moment = block_output_gram(traj, self.cfg.t1, self.N)
        moment /= self.N
        moment -= self._cov
        return moment

    def detector(
        self, traj: Trajectory
    ) -> Callable[[Iterable[int]], tuple[int, FilterRun, ResidueReport]]:
        """Residue test of subsets of ``traj``: the returned detector maps
        a subset to (flag, run, report), flag 0 meaning no effective
        attack was detected and flag 1 that the subset failed the test.
        The window moment is computed here, once."""
        moment = self.window_moment(traj)
        t1, N, p = self.cfg.t1, self.N, self.model.p

        def detect(s: Iterable[int]) -> tuple[int, FilterRun, ResidueReport]:
            subset = normalize_subset(s, p)
            run = run_filter(self.filter(subset), traj, t1, t1 + N - 1)
            report = residue_report(self, traj, subset, run, moment)
            return (0 if report.passed else 1), run, report

        return detect


def _sensor_block(matrix: np.ndarray, n: int, subset: SensorSubset) -> np.ndarray:
    """The rows and columns of the sensors in ``subset`` of an all-sensor
    (n p, n p) window matrix, as a new (n |s|, n |s|) array."""
    p, m, cols = matrix.shape[0] // n, n * len(subset), [i - 1 for i in subset]
    block = matrix.reshape(p, n, p * n).take(cols, axis=0)
    return block.reshape(m, p, n).take(cols, axis=1).reshape(m, m)


def expected_residue_matrix(bank: SubsetBank, flt: SteadyStateFilter) -> np.ndarray:
    """Attack-free expectation of the window-residue outer product for the
    subset of ``flt``: O_s P O_s' + M_s in prediction mode and
    O_s F O_s' + M_s - D - D' in filtering mode, with M_s the subset's
    block of the bank's window noise covariance."""
    model, s = bank.model, flt.subset
    Os = observability_matrix(model, s)
    M = _sensor_block(bank._cov, model.n, s)
    if flt.mode == PREDICTION:
        return Os @ flt.error_cov @ Os.T + M
    D = cross_covariance_correction(model, s, flt)
    return Os @ flt.filtered_cov @ Os.T + M - D - D.T


def residue_report(
    bank: SubsetBank,
    traj: Trajectory,
    s: Iterable[int],
    run: FilterRun,
    moment: np.ndarray | None = None,
) -> ResidueReport:
    """Residue test of subset s on one trajectory, given its filter run.

    ``run`` must cover the window [t1, t1 + N - 1] of the bank's
    detector configuration.  ``moment`` is ``bank.window_moment(traj)``,
    computed here when not given.
    """
    model, cfg = bank.model, bank.cfg
    subset = normalize_subset(s, model.p)
    n, N = model.n, bank.N
    eta = bank.eta(subset)
    if moment is None:
        moment = bank.window_moment(traj)
    flt = bank.filter(subset)
    Os = observability_matrix(model, subset)
    est = run.window(cfg.t1, N)

    # Kt = K' (see the module docstring); Ybar_s' X_hat from the n lagged
    # output slices, lagged[j] = y_s(t1 + j .. t1 + j + N - 1)'
    cols = [i - 1 for i in subset]
    outputs = traj.outputs[cfg.t1 : cfg.t1 + N + n - 1, cols]
    lagged = np.lib.stride_tricks.sliding_window_view(outputs, N, axis=0)
    Kt = (lagged @ est).transpose(1, 0, 2).reshape(n * len(subset), n)
    F = flt.error_cov if flt.mode == PREDICTION else flt.filtered_cov
    Kt -= Os @ (0.5 * (est.T @ est) - 0.5 * N * F)
    Kt /= N
    if flt.mode == FILTERING:
        Kt[::n] -= model.sigma_v2 * flt.gain.T

    # The screen.  With u = eps/2, b the moment's diagonal, g the product's
    # diagonal and S = sum_j |O_s[i, j] Kt[i, j]|, a length-n dot product is
    # within n u S / (1 - n u) of exact, so the row dot r is within 2 n u S
    # of g; fl(fl(b - g) - g) and fl(fl(b - r) - r) each add up to u (2|b| +
    # 3 S): 4 u |b| + (4 n + 6) u S to first order, under a third of the
    # margin for any n, room for higher-order terms and the rounding of the
    # margin and of ``diagonal - eta``.  Underflows add at most 2 n 2^-1074.
    rows = np.diagonal(moment).reshape(model.p, n)[cols].ravel()
    products = Os * Kt
    dots = products.sum(axis=1)
    diagonal = rows - dots - dots
    bound = np.abs(rows) + 2.0 * np.abs(products).sum(axis=1)
    margin = 8.0 * n * (np.finfo(float).eps * bound + np.finfo(float).smallest_subnormal)
    build = partial(_deviation, moment, n, subset, Os, Kt)
    deviation = max_dev = None  # a screened failure builds them on first read
    if not np.any(diagonal - eta > margin):
        deviation, build = build(), None
        max_dev = float(deviation.max())

    # Per-sensor scores for conflict localization: trace of the screened
    # diagonal on the sensor's block, offset by eta*n and normalized by the
    # sensor's observability energy.
    traces = diagonal.reshape(len(subset), n).sum(axis=1)
    mu = {
        i: abs(float(tr) - eta * n) / bank.gram_maxima[i] for i, tr in zip(subset, traces)
    }
    return ResidueReport(
        subset=subset,
        mode=cfg.mode,
        deviation=deviation,
        max_deviation=max_dev,
        eta=eta,
        passed=max_dev is not None and max_dev <= eta,
        per_sensor_mu=mu,
        n_samples=N,
        t1=cfg.t1,
        expectation=partial(expected_residue_matrix, bank, flt),
        build=build,
    )


def _deviation(
    moment: np.ndarray, n: int, subset: SensorSubset, Os: np.ndarray, Kt: np.ndarray
) -> np.ndarray:
    """The subset's block of ``moment`` minus O_s K and its transpose."""
    OK = Os @ Kt.T
    deviation = _sensor_block(moment, n, subset)
    deviation -= OK
    deviation -= OK.T
    return deviation


def attack_detect(
    model: SystemModel,
    traj: Trajectory,
    s: Iterable[int],
    cfg: DetectorConfig,
) -> tuple[int, FilterRun, ResidueReport]:
    """One-shot residue test of subset s through a fresh `SubsetBank`;
    flag 0 means no effective attack was detected, flag 1 means the
    subset failed the test."""
    return SubsetBank(model, cfg).detector(traj)(s)


def effective_attack_oracle(
    traj: Trajectory,
    estimates: FilterRun,
    P_ref: np.ndarray,
    epsilon: float,
    t1: int,
    N: int,
) -> bool:
    """Ground-truth effectiveness check (simulation only): does the
    sample average of the squared estimation error exceed the attack-free
    optimum trace by more than epsilon?

    ``P_ref`` is the prediction or filtered steady covariance matching
    the estimates' mode.
    """
    if t1 + N - 1 >= traj.horizon:
        raise ConfigError("oracle window exceeds trajectory horizon")
    err = traj.states[t1 : t1 + N] - estimates.window(t1, N)
    sample_trace = float(np.mean(np.sum(err * err, axis=1)))
    return sample_trace > float(np.trace(P_ref)) + epsilon
