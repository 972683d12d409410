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

Ybar_s' X_hat is n lagged products, one per window row j: the subset's
outputs at t1 + j .. t1 + j + N - 1 times X_hat.  On a window long
against the state, N >= 16 n^2 as in experiment 1, they come from one
contiguous copy of the subset's output columns, slid along its time axis
and multiplied in blocks of 2^15 / n rows, so no product copies more
than 256 KiB; a shorter window, as in experiment 2, slides over the
outputs in place, whose time axis is strided.  On one BLAS thread the
blocked copy takes 3.7 ms against 8.7 ms at n=20, N=20000, |s|=3, and
the unblocked copy 0.53 ms against 0.44 ms at n=50, N=300, |s|=8; the
measured crossover lies below 2 n^2, so 16 n^2 keeps both shapes clear
of it.  Unblocked, that copy is a 3.2 MB temporary per test at n=20,
N=20000; under glibc its freed pages went back to the system and came
back as about 700 page faults per test.

Nearly every tested subset fails, so a test first forms only the
deviation's diagonal, diag(moment)[s] - 2 rowsum(O_s * K'), from n-long
row dot products, and fails at once on an entry above eta; such a failure
forms its deviation only when read.  A formed deviation carries those same
numbers on its diagonal, so the screen and the full test read one diagonal
and the flags are the full test's by construction.  Every test forms its
per-sensor scores, block traces of that diagonal, on first read; in a
search only certificate shrinking reads them.

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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AnalysisError, ConfigError, _finite
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
        return int(-(-self.N // n) * n)  # exact for integer N; int() keeps a float N working


class ResidueReport:
    """Outcome of one residue test.

    ``passed`` is decided here: a test failed by the diagonal screen
    (``screened``) fails, any other passes when ``max_deviation <= eta``.
    The rest is formed on first read: ``deviation``, the (n|s|)^2 sample -
    expected average of r r', by ``build``, which holds the window moment
    until then, and from it ``max_deviation`` and ``sample_matrix``;
    ``per_sensor_mu`` by ``scores``; ``expected_matrix`` by ``expectation``."""

    def __init__(
        self, subset: SensorSubset, mode: str, eta: float, n_samples: int, t1: int,
        screened: bool, build: Callable, scores: Callable, expectation: Callable
    ):
        self.subset, self.mode, self.eta = subset, mode, eta
        self.n_samples, self.t1, self.expectation = n_samples, t1, expectation
        self._build, self._scores = build, scores
        self.passed = not screened and self.max_deviation <= eta

    @cached_property
    def deviation(self) -> np.ndarray:
        deviation, self._build = self._build(), None  # drops the window moment
        return deviation

    @cached_property
    def max_deviation(self) -> float:
        return float(self.deviation.max())

    @cached_property
    def per_sensor_mu(self) -> dict[int, float]:
        """Residue score of each sensor of the subset (see `_sensor_scores`)."""
        return self._scores()

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
    trajectories can share one bank.  M or a per-sensor Gram O_i' O_i
    past the float64 range is an AnalysisError.
    """

    def __init__(self, model: SystemModel, cfg: DetectorConfig):
        self.model = model
        self.cfg = cfg
        self.N = cfg.window_length(model.n)
        self._cov = noise_structure(model, full_subset(model.p))
        blocks = model.observability_stack.reshape(model.p, model.n, model.n)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused in _finite
            grams = _finite(np.stack([Oi.T @ Oi for Oi in blocks]), "per-sensor Grams O_i' O_i")
        maxima = np.linalg.eigvalsh(grams)[:, -1]
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

    @np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
    def window_moment(self, traj: Trajectory) -> np.ndarray:
        """Ybar' Ybar / N - M over all sensors for the test window of
        ``traj``: the part of every subset's deviation that does not
        depend on its filter.  Raises ConfigError when the window and its
        n - 1 lookahead do not fit in the trajectory, and AnalysisError
        when the moment overflows float64."""
        moment = block_output_gram(traj, self.cfg.t1, self.N)
        moment /= self.N
        moment -= self._cov
        return _finite(moment, "entries of the window moment Ybar' Ybar / N")

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
    D = cross_covariance_correction(model, flt)
    return Os @ flt.filtered_cov @ Os.T + M - D - D.T


def residue_report(
    bank: SubsetBank,
    traj: Trajectory,
    s: Iterable[int],
    run: FilterRun,
    moment: np.ndarray,
) -> ResidueReport:
    """Residue test of subset s on one trajectory, given its filter run.

    ``run`` must cover the window [t1, t1 + N - 1] of the bank's
    detector configuration, and ``moment`` is ``bank.window_moment(traj)``.
    Raises AnalysisError when K overflows float64.
    """
    model, cfg = bank.model, bank.cfg
    subset = normalize_subset(s, model.p)
    n, N = model.n, bank.N
    eta = bank.eta(subset)
    flt = bank.filter(subset)
    Os = observability_matrix(model, subset)
    est = run.window(cfg.t1, N)

    # Kt = K' (see the module docstring)
    cols = [i - 1 for i in subset]
    outputs = traj.outputs[cfg.t1 : cfg.t1 + N + n - 1, cols]
    F = flt.error_cov if flt.mode == PREDICTION else flt.filtered_cov
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        Kt = _lag_products(outputs, est).reshape(n * len(subset), n)
        Kt -= Os @ (0.5 * (est.T @ est) - 0.5 * N * F)
        Kt /= N
    _finite(Kt, f"window products of subset {subset}")
    if flt.mode == FILTERING:
        Kt[::n] -= model.sigma_v2 * flt.gain.T

    # The screen: the deviation's diagonal, which `_deviation` also carries
    rows = np.diagonal(moment).reshape(model.p, n)[cols].ravel()
    dots = (Os * Kt).sum(axis=1)
    diagonal = rows - dots - dots
    return ResidueReport(
        subset, cfg.mode, eta, N, cfg.t1,
        screened=bool(np.any(diagonal > eta)),
        build=partial(_deviation, moment, n, subset, Os, Kt, diagonal),
        scores=partial(_sensor_scores, bank.gram_maxima, subset, diagonal, eta),
        expectation=partial(expected_residue_matrix, bank, flt),
    )


def _sensor_scores(maxima: dict, subset: SensorSubset, diagonal: np.ndarray, eta: float) -> dict:
    """Per-sensor scores for conflict localization: the trace of the
    deviation's diagonal on each sensor's block, offset by eta n and
    normalized by the sensor's observability energy, ``maxima[i]`` =
    lambda_max(O_i' O_i).  Raises AnalysisError when that energy is zero."""
    for i in subset:
        if not maxima[i] > 0.0:
            raise AnalysisError(f"sensor {i} has zero observability energy in float64")
    n = len(diagonal) // len(subset)
    traces = diagonal.reshape(len(subset), n).sum(axis=1)
    return {i: abs(float(tr) - eta * n) / maxima[i] for i, tr in zip(subset, traces)}


def _lag_products(outputs: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Ybar_s' X_hat shaped (|s|, n, n): entry [c, j] is
    outputs[j : j + N, c] @ est, for the (N + n - 1, |s|) window outputs and
    the (N, n) estimates, in the layout the module docstring's size rule
    picks."""
    N, n = est.shape
    if N < 16 * n * n:
        return (sliding_window_view(outputs, N, axis=0) @ est).transpose(1, 0, 2)
    lagged = sliding_window_view(outputs.T.copy(), N, axis=1)
    rows = 2**15 // n  # each product copies one sensor's (n, rows) block: 256 KiB
    products = np.zeros((outputs.shape[1], n, n))
    for start in range(0, N, rows):
        products += lagged[:, :, start : start + rows] @ est[start : start + rows]
    return products


def _deviation(
    moment: np.ndarray, n: int, subset: SensorSubset, Os: np.ndarray, Kt: np.ndarray,
    diagonal: np.ndarray,
) -> np.ndarray:
    """The subset's block of ``moment`` minus O_s K and its transpose, with
    the screen's row-dot ``diagonal`` written over the GEMM's diagonal."""
    OK = Os @ Kt.T
    deviation = _sensor_block(moment, n, subset)
    deviation -= OK
    deviation -= OK.T
    np.fill_diagonal(deviation, diagonal)
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
