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

Every test runs through a `SubsetBank`, which owns the per-subset
quantities of one model: O_s is a row selection of the model's
observability stack and M_s of the full-sensor window noise covariance,
and each subset's filter and threshold are computed once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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
    block_output_matrix,
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


@dataclass(frozen=True)
class ResidueReport:
    """Outcome of one residue test."""

    subset: SensorSubset
    mode: str
    sample_matrix: np.ndarray    # (n|s|, n|s|) sample average of r r'
    expected_matrix: np.ndarray  # attack-free expectation of r r'
    max_deviation: float         # max entry of sample - expected
    eta: float
    passed: bool
    per_sensor_mu: dict[int, float]  # normalized per-sensor residue scores
    n_samples: int
    t1: int

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


def expected_residue_matrix(
    model: SystemModel,
    s: SensorSubset,
    flt: SteadyStateFilter,
    Os: np.ndarray,
    M: np.ndarray,
) -> np.ndarray:
    """Attack-free expectation of the window-residue outer product for
    subset s, given its stacked observability matrix O_s and window noise
    covariance M_s."""
    if flt.mode == PREDICTION:
        return Os @ flt.error_cov @ Os.T + M
    assert flt.filtered_cov is not None
    D = cross_covariance_correction(model, s, flt)
    return Os @ flt.filtered_cov @ Os.T + M - D - D.T


class SubsetBank:
    """Steady-state Kalman filters over the sensor subsets of one model,
    and the attack-free residue expectations they are tested against.

    The full-sensor window noise covariance and each sensor's
    lambda_max(O_i' O_i) are built once; a subset's M_s is a row
    selection of that covariance and its O_s of the model's observability
    stack.  Filters and thresholds are kept on first use.  An expected
    matrix is kept when `prewarm` asks for it or when its subset is
    requested a second time: within one search no subset is tested twice,
    so keeping every first request would only hold memory.
    """

    def __init__(self, model: SystemModel, cfg: DetectorConfig):
        self.model = model
        self.cfg = cfg
        self.N = cfg.window_length(model.n)
        self._cov = noise_structure(model, full_subset(model.p)).cov
        self.gram_maxima: dict[int, float] = {}
        for i in full_subset(model.p):
            Oi = observability_matrix(model, (i,))
            self.gram_maxima[i] = float(np.linalg.eigvalsh(Oi.T @ Oi)[-1])
        self._filters: dict[SensorSubset, SteadyStateFilter] = {}
        self._etas: dict[SensorSubset, float] = {}
        self._expected: dict[SensorSubset, np.ndarray] = {}
        self._requested: set[SensorSubset] = set()

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

    def expected(self, s: SensorSubset) -> np.ndarray:
        exp = self._expected.get(s)
        if exp is None:
            n = self.model.n
            rows = np.concatenate([np.arange((i - 1) * n, i * n) for i in s])
            exp = expected_residue_matrix(
                self.model,
                s,
                self.filter(s),
                observability_matrix(self.model, s),
                self._cov[np.ix_(rows, rows)],
            )
            if s in self._requested:
                self._expected[s] = exp
            self._requested.add(s)
        return exp

    def prewarm(self, subsets: Iterable[Iterable[int]]) -> None:
        """Solve and keep the filters and expected matrices of ``subsets``."""
        for s in subsets:
            subset = normalize_subset(s, self.model.p)
            self._requested.add(subset)
            self.expected(subset)

    def detect(
        self, traj: Trajectory, s: Iterable[int]
    ) -> tuple[int, FilterRun, ResidueReport]:
        """Run the residue test for subset s; flag 0 means no effective
        attack was detected, flag 1 means the subset failed the test."""
        subset = normalize_subset(s, self.model.p)
        t1 = self.cfg.t1
        need = t1 + self.N + self.model.n - 1
        if traj.horizon < need:
            raise ConfigError(
                f"horizon {traj.horizon} too short: window needs at least {need} steps"
            )
        run = run_filter(self.filter(subset), traj, t1, t1 + self.N - 1)
        report = residue_report(self, traj, subset, run)
        return (0 if report.passed else 1), run, report


def residue_report(
    bank: SubsetBank, traj: Trajectory, s: Iterable[int], run: FilterRun
) -> ResidueReport:
    """Residue test of subset s on one trajectory, given its filter run.

    ``run`` must cover the window [t1, t1 + N - 1] of the bank's
    detector configuration.
    """
    model, cfg = bank.model, bank.cfg
    subset = normalize_subset(s, model.p)
    n = model.n
    N = bank.N
    eta = bank.eta(subset)
    ybar = block_output_matrix(traj, subset, cfg.t1, N)
    est = run.window(cfg.t1, N)
    residues = ybar - est @ observability_matrix(model, subset).T  # (N, n|s|)
    sample = residues.T @ residues / N
    expected = bank.expected(subset)
    deviation = sample - expected
    max_dev = float(deviation.max())
    passed = max_dev <= eta

    # Per-sensor scores for conflict localization: trace deviation on the
    # sensor's diagonal block, offset by eta*n and normalized by the
    # sensor's observability energy.
    mu: dict[int, float] = {}
    for idx, i in enumerate(subset):
        block = slice(idx * n, (idx + 1) * n)
        tr_dev = float(np.trace(deviation[block, block]))
        mu[i] = abs(tr_dev - eta * n) / bank.gram_maxima[i]
    return ResidueReport(
        subset=subset,
        mode=cfg.mode,
        sample_matrix=sample,
        expected_matrix=expected,
        max_deviation=max_dev,
        eta=eta,
        passed=passed,
        per_sensor_mu=mu,
        n_samples=N,
        t1=cfg.t1,
    )


def attack_detect(
    model: SystemModel,
    traj: Trajectory,
    s: Iterable[int],
    cfg: DetectorConfig,
) -> tuple[int, FilterRun, ResidueReport]:
    """One-shot residue test of subset s through a fresh `SubsetBank`;
    flag 0 means no effective attack was detected, flag 1 means the
    subset failed the test."""
    return SubsetBank(model, cfg).detect(traj, s)


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
