"""Observability structure of sensor subsets.

Every sensor contributes an n-row observability block (its outputs over
an n-step window depend linearly on the state at the window start), and
per-subset quantities are built by stacking blocks in ascending sensor
order.  The same window view induces a noise structure: the stacked
window outputs are O_s x(t) + J_s wbar(t) + vbar_s(t), where wbar stacks
the process noise over the window and vbar_s the sensor noise.

Rank decisions use singular values with a relative floor; see RANK_RTOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .model import SystemModel, Trajectory

__all__ = [
    "SensorSubset",
    "normalize_subset",
    "full_subset",
    "ObservabilityBundle",
    "NoiseStructure",
    "observability_matrix",
    "is_observable",
    "sparse_observability_index",
    "min_gram_eigenvalue",
    "noise_structure",
    "block_output_window",
    "block_output_matrix",
]

SensorSubset = tuple[int, ...]

# Singular values above RANK_RTOL * max(1, largest singular value) count
# toward rank.
RANK_RTOL = 1e-8

# sparse_observability_index enumerates all subsets; cap the sensor count
# so a typo cannot trigger a 2^p blowup.
DEFAULT_SENSOR_CAP = 20


def normalize_subset(s: Iterable[int], p: int) -> SensorSubset:
    """Sorted, validated 1-based sensor subset."""
    subset = tuple(sorted(set(int(i) for i in s)))
    if not subset:
        raise ConfigError("sensor subset must be nonempty")
    if subset[0] < 1 or subset[-1] > p:
        raise ConfigError(f"sensor subset {subset} out of range 1..{p}")
    return subset


def full_subset(p: int) -> SensorSubset:
    return tuple(range(1, p + 1))


@dataclass(frozen=True)
class ObservabilityBundle:
    """Per-sensor observability blocks and their stack for one subset."""

    subset: SensorSubset
    blocks: dict[int, np.ndarray]   # sensor -> (n, n)
    stacked: np.ndarray             # (n * len(subset), n)


@dataclass(frozen=True)
class NoiseStructure:
    """Noise geometry of the stacked output window for one subset.

    J maps the stacked process-noise window (length n*n) into the
    stacked outputs; cov is the stationary covariance of the window
    noise, sigma_w2 * J @ J.T + sigma_v2 * I.
    """

    subset: SensorSubset
    J: np.ndarray    # (n * len(subset), n * n)
    cov: np.ndarray  # (n * len(subset), n * len(subset))


def _powers_of_A(model: SystemModel) -> list[np.ndarray]:
    powers = [np.eye(model.n)]
    for _ in range(model.n - 1):
        powers.append(powers[-1] @ model.A)
    return powers


def observability_matrix(model: SystemModel, s: Iterable[int]) -> ObservabilityBundle:
    """Blocks O_i with rows C_i A^j (j = 0..n-1) and their vertical stack."""
    subset = normalize_subset(s, model.p)
    powers = _powers_of_A(model)
    blocks = {}
    for i in subset:
        ci = model.C[i - 1]
        blocks[i] = np.vstack([ci @ Aj for Aj in powers])
    stacked = np.vstack([blocks[i] for i in subset])
    return ObservabilityBundle(subset=subset, blocks=blocks, stacked=stacked)


def _rank(matrix: np.ndarray) -> int:
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0:
        return 0
    return int(np.sum(sv > RANK_RTOL * max(1.0, float(sv[0]))))


def is_observable(model: SystemModel, s: Iterable[int]) -> bool:
    return _rank(observability_matrix(model, s).stacked) == model.n


def sparse_observability_index(
    model: SystemModel, max_sensors: int = DEFAULT_SENSOR_CAP
) -> int:
    """Largest theta such that every subset of p - theta sensors is
    observable; -1 when even the full set is not.

    Exhaustive over subsets, with early exit at the first failing level.
    """
    p = model.p
    if p > max_sensors:
        raise ConfigError(
            f"p={p} exceeds the enumeration cap {max_sensors}; raise max_sensors explicitly"
        )
    if not is_observable(model, full_subset(p)):
        return -1
    theta = 0
    for removed in range(1, p):
        size = p - removed
        if all(
            is_observable(model, s) for s in combinations(range(1, p + 1), size)
        ):
            theta = removed
        else:
            break
    return theta


def min_gram_eigenvalue(model: SystemModel, s: Iterable[int], k: int) -> float:
    """Worst-case smallest eigenvalue of the stacked observability Gram
    matrix over all ways to drop k sensors from s.  Zero (not negative)
    when some reduced subset is unobservable."""
    subset = normalize_subset(s, model.p)
    if k < 0 or k >= len(subset):
        raise ConfigError(f"need 0 <= k < |s|, got k={k}, |s|={len(subset)}")
    bundle = observability_matrix(model, subset)
    best = np.inf
    for s1 in combinations(subset, len(subset) - k):
        stacked = np.vstack([bundle.blocks[i] for i in s1])
        gram = stacked.T @ stacked
        lam = float(np.linalg.eigvalsh(gram)[0])
        best = min(best, lam)
    return max(best, 0.0)


def noise_structure(model: SystemModel, s: Iterable[int]) -> NoiseStructure:
    subset = normalize_subset(s, model.p)
    n = model.n
    powers = _powers_of_A(model)
    J = np.zeros((n * len(subset), n * n))
    for idx, i in enumerate(subset):
        ci = model.C[i - 1]
        for j in range(1, n):
            for m in range(j):
                J[idx * n + j, m * n : (m + 1) * n] = ci @ powers[j - 1 - m]
    cov = model.sigma_w2 * (J @ J.T) + model.sigma_v2 * np.eye(J.shape[0])
    return NoiseStructure(subset=subset, J=J, cov=cov)


def block_output_matrix(
    traj: Trajectory, s: Sequence[int], t_start: int, count: int
) -> np.ndarray:
    """Stacked n-step output windows for t = t_start .. t_start+count-1.

    Row t holds, per sensor in ascending order, the window
    [y_i(t), ..., y_i(t+n-1)]; shape (count, n * len(s))."""
    subset = normalize_subset(s, traj.p)
    n = traj.n
    if t_start < 0 or count < 1:
        raise ConfigError("window start/count out of range")
    if t_start + count - 1 + n - 1 >= traj.horizon:
        raise ConfigError(
            f"output window [{t_start}, {t_start + count - 1}] + {n - 1} lookahead "
            f"exceeds horizon {traj.horizon}"
        )
    # sliding_window_view -> (T - n + 1, p, n); selecting sensors keeps
    # sensor-major, time-minor order after the reshape.
    windows = np.lib.stride_tricks.sliding_window_view(traj.outputs, n, axis=0)
    cols = [i - 1 for i in subset]
    block = windows[t_start : t_start + count, cols, :]
    return block.reshape(count, len(subset) * n)


def block_output_window(traj: Trajectory, s: Sequence[int], t: int) -> np.ndarray:
    """Single stacked output window at time t (length n * len(s))."""
    return block_output_matrix(traj, s, t, 1)[0]
