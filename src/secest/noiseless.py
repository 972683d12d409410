"""Exact attack detection and correction for noiseless plants.

Without noise, sensor d's outputs over an n-step window form a symbol
Y_d = O_d x(0); the p symbols make up an observation vector that plays
the role of a codeword for the initial state.  If the system stays
observable after removing any theta sensors, observation vectors of
distinct states differ in at least theta + 1 symbols, which yields the
classic coding bounds: corruptions of up to theta symbols are
detectable, and fewer than (theta + 1)/2 are correctable.

`decode` searches the (p - k)-subsets for one whose symbols lie in the
range of its stacked observability matrix, SUBSET_SLICE subsets at a
time.  A slice that `observability`'s Gram certificate passes is decided
from one R-only QR of each [O_s | Y_s], whose last diagonal entry is the
least-squares residual, and only its consistent subsets are fitted by
an SVD.  A slice the certificate declines, or with a residual within the
QR's rounding band of the consistency bound, is fitted whole by one
batched SVD, as every slice used to be.  So every decision is the
SVD's, as far as the band, a first-order bound derived in `decode`,
holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError, ConfigError, _finite, _integer
from .model import SystemModel
from .observability import (
    _UNIT,
    SensorSubset,
    _gram_certified,
    _stacked_blocks,
    _subset_slices,
    full_subset,
    is_observable,
    observability_matrix,
    sparse_observability_index,
)

__all__ = [
    "SymbolObservation",
    "DecodeResult",
    "encode",
    "detect_corruption",
    "decode",
    "min_symbol_distance",
]

# Least-squares residual below CONSISTENCY_RTOL * (1 + |Y|) counts as an
# exact fit; states within STATE_MATCH_RTOL of each other count as equal
# when checking uniqueness.
CONSISTENCY_RTOL = 1e-8
STATE_MATCH_RTOL = 1e-6


@dataclass(frozen=True)
class SymbolObservation:
    """One n-vector symbol per sensor, row d-1 holding sensor d's window."""

    symbols: np.ndarray  # (p, n)

    def __post_init__(self):
        sym = np.atleast_2d(np.asarray(self.symbols, dtype=float))
        object.__setattr__(self, "symbols", sym)

    @property
    def p(self) -> int:
        return self.symbols.shape[0]

    def with_symbols(self, replacements: dict[int, np.ndarray]) -> "SymbolObservation":
        """Copy with the given sensors' symbols (1-based) replaced, each by
        a vector shaped as the symbols are."""
        out = self.symbols.copy()
        for sensor, value in replacements.items():
            if not 1 <= _integer(sensor, "sensor") <= self.p:
                raise ConfigError(f"sensor {sensor} out of range 1..{self.p}")
            value = np.asarray(value, dtype=float)
            if value.shape != out.shape[1:]:
                raise ConfigError(
                    f"sensor {sensor}'s symbol has shape {value.shape}, expected {out.shape[1:]}"
                )
            out[sensor - 1] = value
        return SymbolObservation(out)


@dataclass(frozen=True)
class DecodeResult:
    state: np.ndarray
    corrupted: SensorSubset
    unique: bool


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def encode(model: SystemModel, x0: np.ndarray) -> SymbolObservation:
    """Clean observation vector of initial state x0: Y_d = O_d x0."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != model.n:
        raise ConfigError(f"x0 has length {x0.shape[0]}, expected {model.n}")
    if not np.isfinite(x0).all():
        raise ConfigError(f"x0 must be finite, got {x0.tolist()}")
    symbols = np.vstack(
        [observability_matrix(model, (d,)) @ x0 for d in range(1, model.p + 1)]
    )
    return SymbolObservation(_finite(symbols, "symbols O_d x0"))


def _norm(values: np.ndarray, axis: int | None = None):
    """``np.linalg.norm(values, axis=axis)``, which squares the entries,
    so it overflows once one passes about 1.3e154; where it does, the
    norm is recomputed from the entries scaled by a power of two, so a
    norm that float64 can represent is finite.  Finite norms are the plain
    ones, bit for bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(values, axis=axis)
        if not np.isinf(norm).any():
            return norm
        _, exponent = np.frexp(np.max(np.abs(values), axis=axis, keepdims=True))
        scale = np.ldexp(1.0, exponent - 1)  # at most 2^1023, and entries / scale below 2
        scaled = np.linalg.norm(values / scale, axis=axis, keepdims=True) * scale
        return np.where(np.isinf(norm), np.squeeze(scaled, axis=axis), norm)


def _fit(stacked_O: np.ndarray, stacked_Y: np.ndarray) -> tuple[np.ndarray, float]:
    x, *_ = np.linalg.lstsq(stacked_O, stacked_Y, rcond=None)
    residual = float(_norm(stacked_O @ x - stacked_Y))
    return x, _finite(residual, "fit residuals")


def _check_symbols(model: SystemModel, obs: SymbolObservation) -> None:
    """ConfigError unless ``obs`` holds one finite n-vector symbol per
    sensor of ``model``."""
    if obs.symbols.shape != (model.p, model.n):
        raise ConfigError(
            f"observation symbols have shape {obs.symbols.shape}, "
            f"expected ({model.p}, {model.n})"
        )
    if not np.isfinite(obs.symbols).all():
        raise ConfigError("observation symbols must be finite")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused in _finite
def detect_corruption(model: SystemModel, obs: SymbolObservation) -> bool:
    """True when no single state explains all symbols simultaneously;
    AnalysisError when their norm or fit residual overflows float64."""
    _check_symbols(model, obs)
    if not is_observable(model, full_subset(model.p)):
        raise AnalysisError("full sensor set is not observable")
    Y = obs.symbols.reshape(-1)
    _, residual = _fit(observability_matrix(model, full_subset(model.p)), Y)
    norm = _finite(float(_norm(Y)), "symbol norms")
    return residual > CONSISTENCY_RTOL * (1.0 + norm)


def _stacked_fits(O: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fits of the stacked systems O[j] x = Y[j] from one
    batched SVD, with lstsq's ``rcond=None`` cutoff (singular values up to
    eps * max(rows, cols) * the largest count as zero): the states (S, n)
    and the residual norms (S,).  LAPACK factors each matrix of the stack
    on its own, so a row's fit does not depend on the other rows."""
    U, sv, Vh = np.linalg.svd(O, full_matrices=False)
    cutoff = np.finfo(float).eps * max(O.shape[1:]) * sv[:, :1]
    inverse = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > cutoff)
    coef = (Y[:, None, :] @ U)[:, 0] * inverse
    x = (coef[:, None, :] @ Vh)[:, 0]
    residual = _norm((O @ x[:, :, None])[:, :, 0] - Y, axis=1)
    return x, _finite(residual, "fit residuals")


def _certified_hits(
    model: SystemModel, chunk: np.ndarray, O: np.ndarray, Y: np.ndarray
) -> np.ndarray | None:
    """The rows of a slice (``chunk`` as in `_stacked_blocks`, O and Y its
    stacked blocks and symbols) whose symbols are consistent, decided from
    one R-only QR of [O | Y] as `decode` derives; None when the slice must
    be decided by `_stacked_fits`."""
    if not _gram_certified(model, chunk):
        return None
    n, rows = model.n, O.shape[1]
    R = np.linalg.qr(np.concatenate([O, Y[:, :, None]], axis=2), mode="r")
    residual = np.abs(R[:, n, n]) if rows > n else np.zeros(len(Y))
    x = np.linalg.solve(R[:, :n, :n], R[:, :n, n:])[:, :, 0]
    norm_Y = _norm(Y, axis=1)
    bound = CONSISTENCY_RTOL * (1.0 + norm_Y)
    size = np.linalg.norm(O, axis=(1, 2)) * _norm(x, axis=1) + norm_Y
    band = 16 * rows * (n + 1) * _UNIT * size
    if not np.isfinite(band).all() or np.any(np.abs(residual - bound) <= band):
        return None
    return np.flatnonzero(residual <= bound)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused in _finite
def decode(
    model: SystemModel,
    obs: SymbolObservation,
    k: int,
    complete: bool = True,
) -> DecodeResult:
    """Recover the initial state assuming at most k corrupted symbols.

    Scans subsets of p - k sensors in lexicographic order for one whose
    symbols lie in the range of its stacked observability matrix; the
    first consistent subset supplies the state and its complement is
    reported as corrupted.  With ``complete`` (the default) the scan goes
    on, and ``unique`` records whether every consistent subset agrees on
    the state (the scan stops at the first that does not); ambiguous
    observations are reported, not hidden.  Raises AnalysisError when no
    subset is consistent, or a symbol norm or fit residual overflows.

    Subsets are decided SUBSET_SLICE at a time.  A subset is consistent
    when the residual of its `_stacked_fits` fit (one batched SVD) is at
    most b = CONSISTENCY_RTOL (1 + ||Y_s||); the states of the consistent
    subsets, fitted by `_stacked_fits`, settle agreement, and without
    ``complete`` the scan ends with the slice that holds the first
    consistent subset.  The reported state is that subset's `lstsq` fit.

    Most slices skip the SVD of their inconsistent subsets: one R-only
    Householder QR of each [O_s | Y_s] gives R = [[R11, r], [0, rho]],
    and |rho| is the least-squares residual (0 when O_s is square).  A
    slice is decided from |rho| when `observability`'s Gram certificate
    passes every subset (one batched Cholesky) and every |rho| lies
    farther from b than the band derived below; any other slice, or one
    with a non-finite band, takes `_stacked_fits` whole, so every
    decision, fallback and overflow error is the SVD's.

    Band.  Let O_s have r = n (p - k) rows, u be the unit roundoff,
    g_k = k u / (1 - k u), g~_k = c k u with c a small constant, x* and
    rho* the exact least-squares solution and residual, and x^ = R11^-1 r.

    - Residuals of perturbed problems: for any dO, dy, rho*(O_s + dO,
      Y_s + dy) is within ||dO||_2 |x| + ||dy|| of rho*, x the minimizer
      of either problem (evaluate each at the other's minimizer).
    - QR: Householder QR computes R exactly for [O_s + dO | Y_s + dy]
      with ||dO||_F <= g~_(r(n+1)) ||O_s||_F and ||dy|| <= g~_(r(n+1))
      ||Y_s|| (Higham, Accuracy and Stability of Numerical Algorithms,
      Thm 19.4), whose minimizer is x^.  So |rho| is within
      g~_(r(n+1)) (||O_s||_F |x^| + ||Y_s||) of rho*.
    - SVD: a certified O_s has sigma_min above RANK_RTOL max(1,
      ||O_full||_F), far above the cutoff eps r sigma_max, so
      `_stacked_fits` truncates nothing, and its solve is backward stable
      (Higham ch. 20) with perturbations g~_(rn) in the same norms: its
      x_s has ||O_s x_s - Y_s|| within 2 g~_(rn) (||O_s||_F |x_s| +
      ||Y_s||) of rho*.  Forming O_s x_s - Y_s and its norm adds at most
      (g_(n+1) + g_(r+1)) (||O_s||_F |x_s| + ||Y_s||).
    - To first order |x_s| = |x^| = |x*|, so the two computed residuals
      differ by at most (3 c + 2) r (n + 1) u (||O_s||_F |x^| + ||Y_s||);
      the band takes 16 for 3 c + 2, which covers c = 4 and the
      second-order terms.

    A |rho| farther than the band from b puts both residuals on the same
    side of b, which is computed as `_stacked_fits`' path computes it."""
    _check_symbols(model, obs)
    k = _integer(k, "k")
    if not 0 <= k < model.p:
        raise ConfigError(f"need 0 <= k < p, got k={k}, p={model.p}")
    first_subset: SensorSubset | None = None
    first_fit = np.empty(0)
    unique = True
    for chunk in _subset_slices(full_subset(model.p), model.p - k):
        O = _stacked_blocks(model, chunk)
        Y = obs.symbols[chunk].reshape(len(chunk), -1)
        hits = _certified_hits(model, chunk, O, Y)
        if hits is None:
            x, residual = _stacked_fits(O, Y)
            bound = CONSISTENCY_RTOL * (1.0 + _finite(_norm(Y, axis=1), "symbol norms"))
            hits = np.flatnonzero(~(residual > bound))
            x = x[hits]
        elif hits.size:
            x, _ = _stacked_fits(O[hits], Y[hits])
        if hits.size == 0:
            continue
        if first_subset is None:
            first_subset = tuple(int(i) + 1 for i in chunk[hits[0]])
            first_fit = x[0]
            if not complete:
                break
        gaps = _norm(x - first_fit, axis=1)
        if np.any(gaps > STATE_MATCH_RTOL * (1.0 + float(_norm(first_fit)))):
            unique = False
            break  # nothing later changes the result
    if first_subset is None:
        raise AnalysisError(
            f"no subset of {model.p - k} sensors is consistent with the observation"
        )
    state, _ = _fit(
        observability_matrix(model, first_subset),
        obs.symbols[[d - 1 for d in first_subset]].reshape(-1),
    )
    corrupted = tuple(i for i in range(1, model.p + 1) if i not in first_subset)
    return DecodeResult(state=state, corrupted=corrupted, unique=unique)


def min_symbol_distance(model: SystemModel) -> int:
    """Minimum symbol Hamming distance between observation vectors of
    distinct initial states: one more than the sparse observability
    index."""
    theta = sparse_observability_index(model)
    if theta < 0:
        raise AnalysisError("full sensor set is not observable")
    return theta + 1
