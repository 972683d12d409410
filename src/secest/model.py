"""Plant model, adversary strategies, and the trajectory simulator.

The plant is a discrete-time linear system

    x(t+1) = A x(t) + w(t),        w(t) ~ N(0, sigma_w2 * I_n)
    y(t)   = C x(t) + v(t) + a(t), v(t) ~ N(0, sigma_v2 * I_p)

where a(t) is the corruption injected by an adversary that controls a
fixed subset of sensors.  Known inputs are irrelevant for estimation
(their contribution can be subtracted from the outputs), so the
simulator runs with u = 0.

Sensor indices are 1-based throughout the package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import ConfigError, _finite, _sensor_indices

__all__ = [
    "SystemModel",
    "AttackSpec",
    "Trajectory",
    "NoAttack",
    "ZeroOutput",
    "NoiseLinear",
    "ConstantBias",
    "SeededRandom",
    "simulate",
    "make_random_stable_system",
]


@dataclass(frozen=True)
class SystemModel:
    """State-space model with scalar process/sensor noise intensities."""

    A: np.ndarray
    C: np.ndarray
    sigma_w2: float
    sigma_v2: float

    def __post_init__(self):
        # Read-only copies: the cached observability stack is built from them.
        A = np.array(self.A, dtype=float)
        C = np.atleast_2d(np.array(self.C, dtype=float))
        for M in (A, C):
            M.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigError(f"A must be square, got shape {A.shape}")
        if C.shape[1] != A.shape[0]:
            raise ConfigError(
                f"C has {C.shape[1]} columns, expected {A.shape[0]}"
            )
        if not (
            np.isfinite(A).all()
            and np.isfinite(C).all()
            and np.isfinite([self.sigma_w2, self.sigma_v2]).all()
        ):
            raise ConfigError("A, C and the noise variances must be finite")
        if self.sigma_w2 < 0 or self.sigma_v2 < 0:
            raise ConfigError("noise variances must be nonnegative")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
    def observability_stack(self) -> np.ndarray:
        """Read-only rows C_i A^j (j = 0..n-1) of every sensor, sensor-major:
        sensor i's n-row observability block starts at row (i - 1) * n.
        Every subset's O_s is a row selection of it; see
        `secest.observability.observability_matrix`.  Raises AnalysisError
        when a row passes the float64 range."""
        powers = [np.eye(self.n)]
        for _ in range(self.n - 1):
            powers.append(powers[-1] @ self.A)
        stack = np.vstack([ci @ Aj for ci in self.C for Aj in powers])
        _finite(stack, "the observability rows C_i A^j").setflags(write=False)
        return stack

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # an overflow is left to the readers
    def sensor_grams(self) -> np.ndarray:
        """Read-only Grams O_i' O_i of every sensor's observability block,
        shape (p, n, n): a subset's W_s = O_s' O_s is the sum of its
        sensors' Grams.  An entry past the float64 range stays inf or nan;
        each reader decides what that means."""
        blocks = self.observability_stack.reshape(self.p, self.n, self.n)
        grams = np.stack([Oi.T @ Oi for Oi in blocks])
        grams.setflags(write=False)
        return grams

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # an overflow gives None below
    def open_loop_cov(self) -> np.ndarray | None:
        """Read-only open-loop state covariance X = A X A' + sigma_w2 I, the
        stationary covariance of x(t), by Smith doubling: X_0 = sigma_w2 I,
        A_0 = A, X_{k+1} = X_k + A_k X_k A_k' and A_{k+1} = A_k^2, so X_k
        sums the first 2^k terms of sum_j A^j (sigma_w2 I) A'^j.  It stops
        once a step changes X by at most eps ||X||_F.  None when the doubling
        does not converge within 64 steps, as for rho(A) >= 1 and sigma_w2 >
        0, or X is not finite."""
        X, Ak = self.sigma_w2 * np.eye(self.n), self.A
        for _ in range(64):
            step = Ak @ X @ Ak.T
            X = X + 0.5 * (step + step.T)
            Ak = Ak @ Ak
            change, size = np.linalg.norm(step), np.linalg.norm(X)
            if not np.isfinite([change, size]).all():
                return None
            if change <= np.finfo(float).eps * size:
                X.setflags(write=False)
                return X
        return None


# Adversary strategies.  Every strategy is causal: the corruption at
# time t is built only from quantities available at time t.


class _FiniteParameters:
    """Every dataclass field of a strategy is a finite number or a tuple of them."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value).all():
                raise ConfigError(f"{type(self).__name__} {f.name} must be finite, got {value}")


@dataclass(frozen=True)
class NoAttack:
    pass


@dataclass(frozen=True)
class ZeroOutput:
    """Force attacked sensor readings to exactly zero (a = -Cx - v)."""


@dataclass(frozen=True)
class NoiseLinear(_FiniteParameters):
    """Add gain * v_j(t) on each attacked sensor j.

    ``gain`` may be a single value or one value per attacked sensor
    (aligned with AttackSpec.attacked); adversaries need not corrupt all
    their sensors equally hard.
    """

    gain: float | tuple[float, ...] = 1.0

    def gains_for(self, count: int) -> np.ndarray:
        if isinstance(self.gain, (int, float)):
            return np.full(count, float(self.gain))
        gains = np.asarray(self.gain, dtype=float)
        if gains.shape != (count,):
            raise ConfigError(
                f"NoiseLinear needs one gain or {count} gains, got {len(gains)}"
            )
        return gains


@dataclass(frozen=True)
class ConstantBias(_FiniteParameters):
    """Add a fixed bias per attacked sensor (aligned with AttackSpec.attacked)."""

    bias: tuple[float, ...] = ()


@dataclass(frozen=True)
class SeededRandom(_FiniteParameters):
    """Add amplitude * iid standard normal draws from a dedicated stream."""

    amplitude: float = 1.0


Strategy = NoAttack | ZeroOutput | NoiseLinear | ConstantBias | SeededRandom


@dataclass(frozen=True)
class AttackSpec:
    """Which sensors are corrupted and how.

    The attacked set is fixed over time (static adversary).  Sensors
    outside it always receive a zero corruption.
    """

    attacked: tuple[int, ...] = ()
    strategy: Strategy = field(default_factory=NoAttack)

    def __post_init__(self):
        attacked = _sensor_indices(self.attacked, "attacked sensors")
        object.__setattr__(self, "attacked", attacked)
        if attacked and attacked[0] < 1:
            raise ConfigError("sensor indices are 1-based")
        if isinstance(self.strategy, ConstantBias) and len(self.strategy.bias) != len(attacked):
            raise ConfigError(
                "ConstantBias needs one bias value per attacked sensor"
            )
        if isinstance(self.strategy, NoiseLinear):
            self.strategy.gains_for(len(attacked))

    def validate_for(self, model: SystemModel) -> None:
        if self.attacked and self.attacked[-1] > model.p:
            raise ConfigError(
                f"attacked sensors {self.attacked} out of range for p={model.p}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Simulated run of the attacked plant.

    ``outputs = clean_outputs + sensor noise + attack`` holds row-wise;
    the noise draws are recoverable from the stored arrays: v = outputs -
    clean_outputs - attack exactly, w = states[1:] - states[:-1] @ A.T up
    to the rounding of the state recursion.
    """

    states: np.ndarray          # (horizon, n)
    clean_outputs: np.ndarray   # (horizon, p)
    outputs: np.ndarray         # (horizon, p)
    attack: np.ndarray          # (horizon, p)
    seed: int

    @property
    def horizon(self) -> int:
        return self.states.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def p(self) -> int:
        return self.outputs.shape[1]


def _scan_buffer(T: int, n: int) -> np.ndarray:
    """The zero (B, L, n) chunks of `_linear_scan` over T rows of length n:
    B = ceil(T / L) chunks of L = min(isqrt(T - 1) + 1, T // n) rows, at
    least 1, so that the scan's (n, L, n) powers take no more room than the
    chunks once T >= n; rows T and above pad the last chunk."""
    L = max(1, min(isqrt(T - 1) + 1, T // n))
    return np.zeros((-(-T // L), L, n))


def _linear_scan(chunks: np.ndarray, M: np.ndarray) -> None:
    """Run xs[r] = xs[r - 1] M + xs[r] for r >= 1 in place over the rows
    xs of a `_scan_buffer`'s (B, L, n) ``chunks``, whose row 0 holds the
    initial state and rows 1.. the inputs.

    An exact two-level scan: it runs the recursion inside every chunk at
    once from a zero state (L - 1 products of B rows), forms the powers
    M^1..L (L - 1 n x n products), carries the state across chunks (B - 1
    vector products) and adds each carried state times the powers to its
    chunk, in slices of chunk rows whose product stays within 256 KiB (one
    slice on short runs): L + B Python steps, about 2 sqrt(T) (T / n + n
    when T < n^2), and about 3 T n^2 flops, with no term truncated.  The
    pad rows continue the recursion with zero input; they may overflow
    where the T rows do not.
    """
    B, L, n = chunks.shape
    powers = np.empty((n, L, n))  # powers[:, j] = M^(j + 1)
    powers[:, 0] = M
    for j in range(1, L):  # the recursion inside every chunk from a zero state
        chunks[:, j] += chunks[:, j - 1] @ M
        powers[:, j] = powers[:, j - 1] @ M
    carry = np.zeros((B, n))  # carry[b] = xs[b L - 1], the state entering chunk b
    for b in range(1, B):
        carry[b] = carry[b - 1] @ powers[:, L - 1] + chunks[b - 1, L - 1]
    J = max(1, 2**15 // (B * n))  # chunk rows per product: at most 256 KiB of it
    for j in range(0, L, J):
        rows = chunks[1:, j : j + J]
        rows += (carry[1:] @ powers[:, j : j + J].reshape(n, -1)).reshape(rows.shape)


def _check_array_size(rows: int, cols: int) -> None:
    """Raise MemoryError for a (rows, cols) float64 array past numpy's
    largest array (numpy raises ValueError) or physical memory (whether
    the allocation fails depends on the host's overcommit policy)."""
    limit = np.iinfo(np.intp).max
    if hasattr(os, "sysconf"):  # POSIX
        limit = min(limit, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    if 8 * rows * cols > limit:
        raise MemoryError(f"{rows} x {cols} float64 values exceed this host's {limit} bytes")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def simulate(
    model: SystemModel,
    attack: AttackSpec,
    horizon: int,
    x0: np.ndarray | None = None,
    seed: int = 0,
    burn_in: int = 0,
) -> Trajectory:
    """Simulate the attacked plant for ``horizon`` steps.

    ``burn_in`` extra steps are simulated first and discarded, so the
    recorded t=0 state is approximately stationary for stable dynamics;
    detector-oriented scenarios use burn_in = 10*n.  ``x0`` (default
    zero) is the state at the start of the burn-in.

    Deterministic given (model, attack, horizon, x0, seed): noise and
    attack draws come from independent PCG64 child streams of ``seed``.
    States or outputs past the float64 range, as an unstable plant gives
    over a long run, are an AnalysisError.
    """
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    if burn_in < 0:
        raise ConfigError("burn_in must be >= 0")
    attack.validate_for(model)
    n, p = model.n, model.p
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != n:
        raise ConfigError(f"x0 has length {x0.shape[0]}, expected {n}")

    total = burn_in + horizon
    _check_array_size(total, max(n, p))
    w_rng, v_rng, a_rng = [
        np.random.Generator(np.random.PCG64(ss))
        for ss in np.random.SeedSequence(seed).spawn(3)
    ]
    sw = float(np.sqrt(model.sigma_w2))
    sv = float(np.sqrt(model.sigma_v2))

    # X[t + 1] = A X[t] + w(t) as rows: row 0 is x0 and row t + 1 is w(t)',
    # drawn in place; w(total - 1) would only reach a state past the horizon
    chunks = _scan_buffer(total, n)
    xs = chunks.reshape(-1, n)
    xs[0] = x0
    if sw > 0:
        w_rng.standard_normal(out=xs[1:total])
        xs[1:total] *= sw
    _linear_scan(chunks, model.A.T)
    X = xs[burn_in:total]

    V = sv * v_rng.standard_normal((total, p)) if sv > 0 else np.zeros((total, p))
    V = V[burn_in:]
    clean = X @ model.C.T
    a = np.zeros((horizon, p))
    if attack.attacked:
        cols = [j - 1 for j in attack.attacked]
        strat = attack.strategy
        if isinstance(strat, NoAttack):
            pass
        elif isinstance(strat, ZeroOutput):
            a[:, cols] = -(clean[:, cols] + V[:, cols])
        elif isinstance(strat, NoiseLinear):
            a[:, cols] = strat.gains_for(len(cols)) * V[:, cols]
        elif isinstance(strat, ConstantBias):
            a[:, cols] = np.asarray(strat.bias, dtype=float)
        elif isinstance(strat, SeededRandom):
            a[:, cols] = strat.amplitude * a_rng.standard_normal((horizon, len(cols)))
        else:
            raise ConfigError(f"unknown attack strategy {strat!r}")

    outputs = clean + V + a
    for arr in (X, clean, outputs, a):
        _finite(arr, "the simulated states or outputs").setflags(write=False)
    return Trajectory(states=X, clean_outputs=clean, outputs=outputs, attack=a, seed=seed)


def make_random_stable_system(
    n: int,
    p: int,
    spectral_radius: float,
    seed: int,
    sigma_w2: float = 1.0,
    sigma_v2: float = 1.0,
) -> SystemModel:
    """Draw A, C with iid standard-normal entries, rescaling A to the
    requested spectral radius.  Deterministic given the seed."""
    if n < 1 or p < 1:
        raise ConfigError("n and p must be positive")
    if not 0 < spectral_radius < 1:
        raise ConfigError("spectral_radius must lie in (0, 1)")
    _check_array_size(max(n, p), n)
    rng = np.random.Generator(np.random.PCG64(seed))
    A = rng.standard_normal((n, n))
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    if rho == 0:  # probability-zero draw, but keep the contract total
        A = np.eye(n)
        rho = 1.0
    A *= spectral_radius / rho
    C = rng.standard_normal((p, n))
    return SystemModel(A=A, C=C, sigma_w2=sigma_w2, sigma_v2=sigma_v2)
