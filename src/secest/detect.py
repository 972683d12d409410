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

Many failures are settled before their filter is solved (378 of 486 per
trajectory at experiment 2's p=12), by a lower bound on the diagonal's
sum.  With G = Ybar' Ybar / N (the moment plus M), W_s =
O_s' O_s and H_s = O_s' G_s O_s, the projection of ybar_s(t) off the
range of O_s is the least any estimate leaves, so for every estimate
sequence the diagonal sums to at least

    LB = tr(G_s) - tr(W_s^-1 H_s) - tr(E_s),

tr(E_s) = tr(F W_s) + tr(M_s), less 2 sigma_v2 sum_c C_c L[:, c] in
filtering mode.  That term needs a filter, but on a stable plant the
open-loop state covariance X = A X A' + sigma_w2 I
(`SystemModel.open_loop_cov`) bounds it for every subset without one:
P <= X by Riccati comparison (Anderson and Moore, Optimal Filtering,
1979), F <= P and sigma_v2 sum_c C_c L[:, c] >= 0, so tr(E_s) - tr(M_s)
<= tr(X W_s), the sum of per-sensor traces tr(X O_c' O_c).  The bound
always reads X, never a filter, so it is the same whichever filters the
bank keeps; a plant without X, such as an unstable one, has no bound,
and every test there is the full test.
When LB exceeds n |s| eta by a margin, some diagonal entry exceeds eta,
and the test fails with no solve, no run and no lag products.  The
margin is derived in `_TraceBound.terms`: it covers the bound's own
rounding, which grows with the condition of W_s, the moment's rounding
seen through the projector, the full test's rounding in its row-dot
diagonal, which it bounds through LB itself, X's rounding and that of
the filter the full test would compute.  So the flags are the full
test's.  The bank keeps each sensor's Gram O_c' O_c, noise
trace tr(M_c) and open-loop trace; a detector keeps the blocks
O_c' G_cd O_d for c <= d, built one sensor row of G at a time (1.5 MB at
n=50, p=12), and per sensor the moment's diagonal sum and the outputs'
mean square; a subset's bound is one weighted sum of those blocks, one
n x n inverse and a few traces.  A bound-failed report solves its filter
on the first read of its expected matrix, and runs its filter and full
test on the first read of its run, deviation or scores, and then equals
the full test's bit for bit.  So on a stable plant a subset whose solve
would raise, but whose bound fails, is flagged with no exception; its
report raises the solve's AnalysisError when read.  An unobservable
subset raises at the detector call: the bank checks the solve's
preconditions once per subset, and its solves do not check them again.
That check is `is_observable`, which certifies a subset from the sum of
its sensors' Grams by one n x n Cholesky and takes the SVD of O_s only
when the certificate declines; on experiment 2's plants no subset a
search tests needs the SVD.

Every test runs through a `SubsetBank`, which owns the per-subset
quantities of one model: O_s is a row selection of the model's
observability stack, M_s is cut from M by the helper that cuts the
moment's block, and each subset's filter and threshold are computed once.
`SubsetBank.detector(traj)` holds one trajectory's window moment
Ybar' Ybar / N - M and the bound's blocks, and tests subsets against
them; `attack_detect` tests one subset.  Both return (flag, report).
Every test's report is a `ResidueReport` built one way, from the bank,
the trajectory, the subset and the moment, with the filter run when the
test made one; it forms the rest of its one full test on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AnalysisError, ConfigError, _finite, _integer
from .kalman import (
    FILTERING,
    PREDICTION,
    FilterRun,
    SteadyStateFilter,
    _check_solvable,
    _doubling_solve,
    cross_covariance_correction,
    run_filter,
)
from .model import SystemModel, Trajectory
from .observability import (
    SensorSubset,
    _UNIT,
    _gamma,
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
        if not (math.isfinite(self.N) and self.N >= 1):
            raise ConfigError(f"N must be finite and >= 1, got {self.N}")
        t1 = _integer(self.t1, "t1")
        if t1 < 0:
            raise ConfigError(f"t1 must be >= 0, got {t1}")
        if self.mode not in (PREDICTION, FILTERING):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.eta is None and self.k is None:
            raise ConfigError("either eta or k (for the auto threshold) is required")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0):
            raise ConfigError(f"eta must be positive and finite, got {self.eta}")
        if self.k is not None and _integer(self.k, "k") < 0:
            raise ConfigError(f"k must be nonnegative, got {self.k}")

    def window_length(self, n: int) -> int:
        """N rounded up to the next multiple of the state dimension."""
        return int(-(-self.N // n) * n)  # exact for integer N; int() keeps a float N working


class ResidueReport:
    """Outcome of the residue test of one normalized subset on one trajectory.

    ``settled`` names what decided it: ``"bound"``, the trace bound, and
    ``"screen"``, the diagonal screen, only fail a test; after
    ``"full"``, the test passes when ``max_deviation <= eta``.  ``passed``
    is decided here, where a report given its filter ``run`` forms the
    screen's diagonal; a bound failure runs its filter on first read.
    The rest comes from one full test on first read: O_s and K', the
    diagonal, ``deviation``, the (n|s|)^2 sample - expected average of
    r r', and from it ``max_deviation`` and ``sample_matrix``, the scores
    and ``expected_matrix``.  The trajectory is let go once K' is formed,
    and the window moment, O_s and K' once the deviation is."""

    def __init__(
        self, bank: SubsetBank, traj: Trajectory, subset: SensorSubset, moment: np.ndarray,
        run: FilterRun | None = None,
    ):
        cfg = bank.cfg
        self.subset, self.mode, self.eta = subset, cfg.mode, bank.eta(subset)
        self.n_samples, self.t1 = bank.N, cfg.t1
        self._bank, self._traj, self._moment = bank, traj, moment
        if run is None:
            self.settled = "bound"
        else:
            self.run = run
            self.settled = "screen" if np.any(self._diagonal > self.eta) else "full"
        self.passed = self.settled == "full" and self.max_deviation <= self.eta

    @cached_property
    def run(self) -> FilterRun:
        """The subset's filter run over the window."""
        bank = self._bank
        return run_filter(bank.filter(self.subset), self._traj, self.t1, self.t1 + bank.N - 1)

    @cached_property
    def _products(self) -> tuple[np.ndarray, np.ndarray]:
        """O_s and K' (see the module docstring); drops the trajectory.
        Raises AnalysisError when K overflows float64."""
        bank, subset, t1, N = self._bank, self.subset, self.t1, self.n_samples
        model, flt = bank.model, bank.filter(subset)
        n = model.n
        Os = observability_matrix(model, subset)
        est = self.run.window(t1, N)
        outputs = self._traj.outputs[t1 : t1 + N + n - 1, [i - 1 for i in subset]]
        F = flt.error_cov if flt.mode == PREDICTION else flt.filtered_cov
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            Kt = _lag_products(outputs, est).reshape(n * len(subset), n)
            Kt -= Os @ (0.5 * (est.T @ est) - 0.5 * N * F)
            Kt /= N
        _finite(Kt, f"window products of subset {subset}")
        if flt.mode == FILTERING:
            Kt[::n] -= model.sigma_v2 * flt.gain.T
        self._traj = None
        return Os, Kt

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """The screen: the deviation's diagonal, diag(moment)[s] -
        2 rowsum(O_s * K'), from n-long row dot products."""
        model = self._bank.model
        rows = np.diagonal(self._moment).reshape(model.p, model.n)[np.subtract(self.subset, 1)]
        Os, Kt = self._products
        dots = (Os * Kt).sum(axis=1)
        return rows.ravel() - dots - dots

    @cached_property
    def deviation(self) -> np.ndarray:
        """The subset's block of the window moment minus O_s K and its
        transpose, with the screen's diagonal written over the GEMM's."""
        Os, Kt = self._products
        OK = Os @ Kt.T
        deviation = _sensor_block(self._moment, self._bank.model.n, self.subset)
        deviation -= OK
        deviation -= OK.T
        np.fill_diagonal(deviation, self._diagonal)
        del self._products
        self._moment = None
        return deviation

    @cached_property
    def max_deviation(self) -> float:
        return float(self.deviation.max())

    @cached_property
    def per_sensor_mu(self) -> dict[int, float]:
        """Per-sensor scores for conflict localization: the trace of the
        deviation's diagonal on each sensor's block, offset by eta n and
        normalized by the sensor's observability energy lambda_max(O_i' O_i).
        Raises AnalysisError when that energy is zero."""
        diagonal, maxima, subset = self._diagonal, self._bank.gram_maxima, self.subset
        for i in subset:
            if not maxima[i] > 0.0:
                raise AnalysisError(f"sensor {i} has zero observability energy in float64")
        n = self._bank.model.n
        traces = diagonal.reshape(len(subset), n).sum(axis=1)
        return {i: abs(float(tr) - self.eta * n) / maxima[i] for i, tr in zip(subset, traces)}

    @cached_property
    def expected_matrix(self) -> np.ndarray:
        """Attack-free expectation of r r'."""
        return expected_residue_matrix(self._bank, self._bank.filter(self.subset))

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

    ConfigError, from `min_gram_eigenvalue`, unless k is an integer in
    0 <= k < |s|.
    """
    subset = normalize_subset(s, model.p)
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

    The full-sensor window noise covariance M and, per sensor, the
    lambda_max of its Gram O_i' O_i (read from `SystemModel.sensor_grams`),
    its noise trace tr(M_i) and its open-loop trace tr(X O_i' O_i) are
    built once; a subset's M_s is its block of M and its O_s a row
    selection of the model's observability stack.
    Filters and thresholds are kept on first use; nothing of size
    (n|s|)^2 is kept.  `detector(traj)` tests subsets of one trajectory:
    it holds that trajectory's window moment and trace-bound blocks, so
    detectors of different trajectories can share one bank.  On a plant
    with an open-loop covariance X the trace bound, which reads X and no
    filter, fails most attacked subsets before their filter is solved,
    and such a subset's filter is solved only when its report is read; on
    a plant without X every test is the full test.  M or a per-sensor
    Gram O_i' O_i past the float64 range is an AnalysisError.
    """

    def __init__(self, model: SystemModel, cfg: DetectorConfig):
        self.model = model
        self.cfg = cfg
        self.N = cfg.window_length(model.n)
        self._cov = noise_structure(model, full_subset(model.p))
        grams = _finite(model.sensor_grams, "per-sensor Grams O_i' O_i")
        maxima = np.linalg.eigvalsh(grams)[:, -1]
        self.gram_maxima = {i: float(lam) for i, lam in enumerate(maxima, start=1)}
        self._grams = grams  # W_s of the trace bound is the sum of its sensors' Grams
        self._cov_traces = np.diagonal(self._cov).reshape(model.p, model.n).sum(axis=1)
        self._open_loop = _open_loop(model, grams)
        self._filters: dict[SensorSubset, SteadyStateFilter] = {}
        self._observable: set[SensorSubset] = set()  # passed the solve's preconditions
        self._etas: dict[SensorSubset, float] = {}

    def filter(self, s: SensorSubset) -> SteadyStateFilter:
        """The filter of subset s, solved on first use; raises as the solve does."""
        flt = self._filters.get(s)
        if flt is None:
            self._check_once(s)
            flt = self._filters[s] = _doubling_solve(self.model, s, self.cfg.mode)
        return flt

    def _check_once(self, s: SensorSubset) -> None:
        """The solve's preconditions for subset s, checked once per subset."""
        if s not in self._observable:
            _check_solvable(self.model, s)
            self._observable.add(s)

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

    def detector(self, traj: Trajectory) -> Callable[[Iterable[int]], tuple[int, ResidueReport]]:
        """Residue test of subsets of ``traj``: the returned detector maps
        a subset to (flag, report), flag 0 meaning no effective attack was
        detected and flag 1 that the subset failed the test.  A failure
        settled by the trace bound runs its filter only when its report's
        run, deviation or scores are read.  The bound runs only on a plant
        with an open-loop covariance X.  The window moment and the bound's
        blocks are computed here, once."""
        moment = self.window_moment(traj)
        bound = None if self._open_loop is None else _TraceBound(self, traj, moment)
        cfg, N, p = self.cfg, self.N, self.model.p

        def detect(s: Iterable[int]) -> tuple[int, ResidueReport]:
            subset = normalize_subset(s, p)
            self._check_once(subset)  # an unobservable subset raises here, as in the solve
            eta = self.eta(subset)  # raises before the bound, as in the full test
            if bound is not None:
                lb, margin = bound.terms(subset)
                if lb - margin > self.model.n * len(subset) * eta:  # False on nan
                    return 1, ResidueReport(self, traj, subset, moment)
            run = run_filter(self.filter(subset), traj, cfg.t1, cfg.t1 + N - 1)
            report = residue_report(self, traj, subset, run, moment)
            return (0 if report.passed else 1), report

        return detect


@cache
def _pair_weights(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions (a, b), a <= b, of the sensor pairs of an m-sensor subset,
    and the weight of Q_ab in the sum whose symmetric part is H_s: 1/2 on
    the diagonal and 1 off it, as tr(W^-1 Q_ba) = tr(W^-1 Q_ab)."""
    first, second = np.triu_indices(m)
    weights = np.where(first == second, 0.5, 1.0)
    for shared in (first, second, weights):
        shared.setflags(write=False)
    return first, second, weights


class _OpenLoop(NamedTuple):
    """What the trace bound reads of the model's open-loop covariance X."""

    traces: np.ndarray  # tr(X O_c' O_c) of each sensor c
    norm: float         # ||X||_F
    error: float        # delta, a bound on X's relative error (see `_TraceBound.terms`)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite delta gives None
def _open_loop(model: SystemModel, grams: np.ndarray) -> _OpenLoop | None:
    """X's part of the trace bound, or None without X or with delta >= 1/4.
    delta bounds ||R||_F / sigma_w2 for X's exact residual R = A X A' +
    sigma_w2 I - X: the computed residual's norm plus its rounding,
    g(2n + 2) (||A||_F^2 ||X||_F + ||X||_F + sigma_w2 sqrt(n)).  X is 0 and
    exact when sigma_w2 is 0."""
    X = model.open_loop_cov
    if X is None:
        return None
    n, A, q = model.n, model.A, model.sigma_w2
    size = float(np.linalg.norm(X))
    delta = 0.0
    if q > 0:
        residual = A @ X @ A.T + q * np.eye(n) - X
        rounding = _gamma(2 * n + 2) * ((np.linalg.norm(A) ** 2 + 1) * size + q * math.sqrt(n))
        delta = float(np.linalg.norm(residual) + rounding) / q
    if not delta < 0.25:
        return None
    return _OpenLoop(np.einsum("ij,cij->c", X, grams), size, delta)


class _TraceBound:
    """The trace bound of one trajectory on a plant with an open-loop
    covariance X (see the module docstring): the blocks Q_cd =
    O_c' G_cd O_d for sensors c <= d, flattened in row-major pair order,
    and per sensor the diagonal sum of the window moment and the mean
    square of its outputs over the window and its lookahead."""

    def __init__(self, bank: SubsetBank, traj: Trajectory, moment: np.ndarray):
        model, cfg, N = bank.model, bank.cfg, bank.N
        n, p = model.n, model.p
        self.bank = bank
        self.moment_sums = np.diagonal(moment).reshape(p, n).sum(axis=1)
        blocks = model.observability_stack.reshape(p, n, n)
        self.pairs = np.empty((p * (p + 1) // 2, n * n))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite bound fails nothing
            outputs = traj.outputs[cfg.t1 : cfg.t1 + N + n - 1]
            self.output_squares = np.einsum("tc,tc->c", outputs, outputs) / N
            start = 0
            for c in range(p):
                rows = moment[c * n : (c + 1) * n] + bank._cov[c * n : (c + 1) * n]  # G's rows
                left = (blocks[c].T @ rows).reshape(n, p, n)[:, c:]  # [:, d - c] -> O_c' G_cd
                out = self.pairs[start : start + p - c].reshape(p - c, n, n)
                np.matmul(left.transpose(1, 0, 2), blocks[c:], out=out)
                start += p - c

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite bound fails nothing
    def terms(self, subset: SensorSubset) -> tuple[float, float]:
        """(LB, margin) of subset s: the diagonal of its deviation, as the
        full test computes it, sums to at least LB - margin for any
        estimates the filter run may give.  LB reads the bank's open-loop
        covariance X, which bounds the covariance and cross term of every
        filter of the subset.  The margin is infinite where its
        first-order derivation below does not apply."""
        bank, model = self.bank, self.bank.model
        n, p, N = model.n, model.p, bank.N
        cols = np.subtract(subset, 1)
        m = len(cols)
        first, second, weights = _pair_weights(m)
        c, d = cols[first], cols[second]
        half = (weights @ self.pairs[c * (2 * p - c + 1) // 2 + d - c]).reshape(n, n)
        H = half + half.T  # H_s, symmetric
        W = bank._grams[cols].sum(axis=0)
        try:
            inverse = np.linalg.inv(W)
        except np.linalg.LinAlgError:
            return math.nan, math.inf
        Z = inverse @ H
        trW, Cs, X = np.trace(W), model.C[cols], bank._open_loop
        expected = X.traces[cols].sum()  # tr(X W_s), at least tr(E_s) - tr(M_s)
        gain = np.vdot(Cs, Cs) * X.norm  # ||C_s||^2 ||X||_F
        cross_size = gain if bank.cfg.mode == FILTERING else 0.0  # bounds |D|, by (d)
        kappa = 1 + gain / model.sigma_v2
        solve = 2 * _gamma(2 * n + m) * (kappa + 1) * (X.norm * trW + cross_size)
        solve += 2 * X.error * expected
        rows = self.moment_sums[cols].sum()  # tr(G_s) - tr(M_s)
        lb = float(rows - np.trace(Z) - expected)

        # The margin, to first order in the unit roundoff u, with g(k) =
        # `_gamma(k)`.  Let TG = tr(G_s) and TM = tr(M_s), both >= 0,
        # nu = ||W^-1||_F >= 1 / lambda_min(W_s), A = TG + TM + |tr(E_s) -
        # TM|, ||F|| the norm of the filter's covariance and |D| a bound on
        # sigma_v2 ||C_s|| ||L||, which bounds the terms of D.  (d) bounds
        # ||F||, |D| and A through X.
        # (a) The bound's own arithmetic.  `inv` solves for each column
        #     (W + dW_j)^-1 e_j, ||dW_j|| <= g(3n) n ||W||_F (|L||U| is
        #     about n ||W|| for a positive definite W), so tr(W^-1 H) moves
        #     by at most max ||dW_j|| nu ||W^-1 H||_F.  W_s = O_s' O_s, H_s =
        #     O_s' G_s O_s and the product W^-1 H carry |O_s|' |O_s|,
        #     |O_s|' |G_s| |O_s| and |W^-1| |H| times g(2n + m^2 + 1), of
        #     Frobenius norms tr(W_s), tr(W_s) TG and nu tr(W_s) TG, which
        #     the trace sees through nu and ||W^-1|| tr(W^-1 H) <= nu TG:
        #     3 g(2n + m^2 + 1) tr(W_s) nu TG covers them and G's rows.  The
        #     sums over sensors and entries add g(n + m) (TG + TM) and
        #     2 g(n^2 + n + m) (||F|| tr(W_s) + |D|) (tr(X W_s) sums m
        #     per-sensor traces of n^2 terms), the last subtractions 4 u A.
        # (b) The window moment's rounding dG, seen through the projector
        #     Pi_s: the full test reads the same moment diagonal, so only
        #     tr(Pi_s dG_s) <= n ||dG_s|| is left.  Each Gram entry is a
        #     signed sum of at most N + 2n products of outputs from the
        #     window and its lookahead, whose absolute values sum to at most
        #     3 N sqrt(Y_c Y_d), Y_c the mean square of sensor c's outputs
        #     there; with the division by N and the subtraction of M,
        #     ||dG_s||_F <= 3 g(N + 2n) n sum_c Y_c + 2 u (TG + TM).
        # (c) The full test's rounding in its row-dot diagonal.  Its lag
        #     products, X_hat' X_hat, O_s products and row dots move the
        #     diagonal's sum by at most 2 g(N + n + 5) [sqrt(tr(W_s) TG X2) +
        #     tr(W_s) X2 + tr(W_s) ||F|| + |D|] + 2 u (TG + TM), where X2 =
        #     sum_t ||x_hat(t)||^2 / N, which the bound does not have.  But
        #     ||x_hat||^2 <= nu |O_s x_hat|^2 and |O_s x_hat|^2 <= 2 |ybar_s|^2
        #     + 2 |r|^2, so X2 <= 2 nu (TG + tr S) with tr S = sum_t |r(t)|^2 /
        #     N, the exact diagonal sum plus tr(E_s) less tr(dG_s).  With
        #     sqrt(ab) <= (a + b) / 2 and rho = 6 g(N + n + 5) tr(W_s) nu, the
        #     computed sum is at least (1 - rho) times the exact one, less
        #     rho A + g(N + n + 5) (TG + 2 tr(W_s) ||F|| + 2 |D|) + 2 u (TG + TM).
        # (d) X in place of the filter.  In exact arithmetic each Riccati
        #     iterate from P = 0 is at most the Lyapunov iterate A P A' +
        #     sigma_w2 I from 0, so P <= X, and the doubling's H_k increase
        #     towards P, so stopping early only lowers it.  F = P - L C_s P
        #     <= P in filtering mode, and tr(C_s L) = tr(C_s P C_s' S^-1) >= 0
        #     with S = C_s P C_s' + sigma_v2 I.  So tr(E_s) - TM = tr(F W_s) -
        #     2 sigma_v2 tr(C_s L) <= tr(X W_s), ||F|| <= ||X||_F, A <= TG +
        #     TM + tr(X W_s) + 2 |D|, and as ||L|| <= ||P|| ||C_s|| / sigma_v2,
        #     |D| <= ||C_s||^2 ||X||_F (0 in prediction mode).  The full test
        #     reads the computed filter: the solve claims P to its stopping
        #     floor n eps ||P||_F <= 2 n u ||X||_F, and forms P, F and L
        #     through solves with I + G H and S, whose condition is at most
        #     kappa = 1 + ||C_s||^2 ||X||_F / sigma_v2 (S >= sigma_v2 I and
        #     ||G H|| <= ||C_s||^2 ||X|| / sigma_v2).  So its tr(F W_s) and
        #     2 sigma_v2 tr(C_s L) lie within 2 g(2n + m) (kappa + 1)
        #     (||X||_F tr(W_s) + |D|) of values that obey the inequality.
        # (e) X's own rounding.  The true X is the computed one plus sum_j
        #     A^j R A'^j <= ||R|| X / sigma_w2 for its exact residual R, so
        #     tr(X W_s) is at most the computed one over 1 - delta, with
        #     delta >= ||R||_F / sigma_w2 from `_open_loop`: within 2 delta
        #     tr(X W_s) of it while delta < 1/4.
        # By (a), (b), (d) and (e) the exact sum is at least LB less their
        # terms, so the computed sum is at least LB - rho (|LB| + A) - (a) -
        # (b) - (c) - (d) - (e).  The margin doubles that for the
        # second-order terms, while rho < 1/4.
        u = _UNIT
        TM = bank._cov_traces[cols].sum()
        TG = abs(rows + TM)
        A = TG + TM + (expected + 2 * cross_size)
        nu = np.linalg.norm(inverse)
        rho = 6 * _gamma(N + n + 5) * trW * nu
        own = (
            _gamma(3 * n) * n * np.linalg.norm(W) * nu * np.linalg.norm(Z)
            + 3 * _gamma(2 * n + m * m + 1) * trW * nu * TG
            + _gamma(n + m) * (TG + TM)
            + 2 * _gamma(n * n + n + m) * (X.norm * trW + cross_size)
            + 4 * u * A
        )
        squares = self.output_squares[cols].sum()
        projected = n * (3 * _gamma(N + 2 * n) * n * squares + 2 * u * (TG + TM))
        full = _gamma(N + n + 5) * (TG + 2 * trW * X.norm + 2 * cross_size) + 2 * u * (TG + TM)
        margin = 2 * (rho * (abs(lb) + A) + own + projected + full + solve)
        return lb, (float(margin) if rho < 0.25 else math.inf)


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
    return ResidueReport(bank, traj, normalize_subset(s, bank.model.p), moment, run)


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


def attack_detect(
    model: SystemModel,
    traj: Trajectory,
    s: Iterable[int],
    cfg: DetectorConfig,
) -> tuple[int, ResidueReport]:
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
