"""Observability structure of sensor subsets.

Every sensor contributes an n-row observability block, the rows C_i A^j
for j = 0..n-1 (its outputs over an n-step window depend linearly on the
state at the window start).  `SystemModel.observability_stack` holds the
blocks of all sensors once per model, and every per-subset quantity here
reads its rows from that stack: O_s stacks the blocks of s in ascending
sensor order.  The same window view induces a noise structure: the
stacked window outputs are O_s x(t) + J_s wbar(t) + vbar_s(t), where wbar
stacks the process noise over the window and vbar_s the sensor noise;
`noise_structure` builds their covariance from O_s without forming J_s.

Every rank decision is the one of a stacked helper, `_observable`: it
gathers the O_s of a stack of equal-size subsets from the model's stack
in one index, (S, |s| n, n), and counts the singular values of one
batched SVD above the relative floor RANK_RTOL.  Enumerations over
subsets (`sparse_observability_index`, `min_gram_eigenvalue`, and the
noiseless decoder) hand it SUBSET_SLICE subsets at a time, in
lexicographic order, so memory stays bounded at any level size.

One certificate, `_gram_certified`, vouches for a stack of subsets
without an SVD: one batched Cholesky of each subset's Gram W_s, the sum
of its sensors' Grams (`SystemModel.sensor_grams`), shifted by a floor
tau that puts every subset above the SVD test's own floor.  It only ever
answers True, and only where the SVD would.  The single-subset test
`is_observable`, which every filter solve and bank check runs, asks it
for a stack of one and takes the SVD when it declines; the noiseless
decoder asks it for each slice of subsets, and a certified slice can
skip its SVD.  tau is derived once, in `is_observable`'s docstring.

The sparse observability index theta is p - 1 - F, where F is the
largest size of an unobservable subset (0 when there is none).
`sparse_observability_index` finds F from both ends of the subset
lattice, always deciding the level with fewer subsets next.  A level
from the top that holds an unobservable subset is F.  A level from the
bottom whose every subset keeps its smallest singular value above one
certified floor, shared by all subsets, settles every larger level as
observable.  Exactness rests on two facts, for s a subset of t: adding
rows does not lower the smallest singular value (O_t' O_t - O_s' O_s is
the Gram of the added rows), and no subset's own floor exceeds the full
set's, because O_s is a row selection of O_full.  The certified floor adds a slack for the
rounding of the SVDs; `sparse_observability_index` derives it.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, _finite, _sensor_indices
from .model import SystemModel, Trajectory

__all__ = [
    "SensorSubset",
    "normalize_subset",
    "full_subset",
    "observability_matrix",
    "is_observable",
    "sparse_observability_index",
    "min_gram_eigenvalue",
    "noise_structure",
    "block_output_gram",
]

SensorSubset = tuple[int, ...]

# Singular values above RANK_RTOL * max(1, largest singular value) count
# toward rank.
RANK_RTOL = 1e-8

_UNIT = np.finfo(float).eps / 2  # the unit roundoff u of float64

# Subset enumerations decide this many subsets per batched call.
SUBSET_SLICE = 64

# sparse_observability_index decides most plants from a level or two,
# but its worst case (theta near p / 2, or singular values near the
# floor) still decides about 2^p subsets; cap the sensor count so a typo
# cannot trigger that blowup.
DEFAULT_SENSOR_CAP = 20


def normalize_subset(s: Iterable[int], p: int) -> SensorSubset:
    """Sorted, validated 1-based sensor subset."""
    subset = _sensor_indices(s, "sensor subset entries")
    if not subset:
        raise ConfigError("sensor subset must be nonempty")
    if subset[0] < 1 or subset[-1] > p:
        raise ConfigError(f"sensor subset {subset} out of range 1..{p}")
    return subset


def full_subset(p: int) -> SensorSubset:
    return tuple(range(1, p + 1))


def _stacked_blocks(model: SystemModel, subsets: np.ndarray) -> np.ndarray:
    """O_s of every row of ``subsets`` (ascending 0-based sensor indices,
    shape (S, |s|)), gathered from the model's stack: (S, n |s|, n)."""
    n = model.n
    blocks = model.observability_stack.reshape(model.p, n, n)
    return blocks[subsets].reshape(len(subsets), -1, n)


def _subset_slices(sensors: Sequence[int], size: int) -> Iterator[np.ndarray]:
    """The size-subsets of ``sensors`` (1-based, ascending) in
    lexicographic order, SUBSET_SLICE at a time, as arrays of 0-based
    sensor indices of shape (<= SUBSET_SLICE, size)."""
    combos = combinations([i - 1 for i in sensors], size)
    while True:
        flat = np.fromiter(
            chain.from_iterable(islice(combos, SUBSET_SLICE)), dtype=np.intp
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, size)


def _singular_values(model: SystemModel, subsets: np.ndarray) -> np.ndarray:
    """Singular values of the O_s of every row of ``subsets`` (as in
    `_stacked_blocks`), descending: shape (S, n), one batched SVD."""
    return np.linalg.svd(_stacked_blocks(model, subsets), compute_uv=False)


def _full_rank(sv: np.ndarray) -> np.ndarray:
    """Rank n per row of ``sv`` (as `_singular_values` returns them),
    counting singular values above RANK_RTOL * max(1, largest one)."""
    floor = RANK_RTOL * np.maximum(1.0, sv[:, :1])
    return np.count_nonzero(sv > floor, axis=1) == sv.shape[1]


def _observable(model: SystemModel, subsets: np.ndarray) -> np.ndarray:
    """Observability of every row of ``subsets`` (as in `_stacked_blocks`),
    shape (S,): O_s has rank n, as `_full_rank` decides it."""
    return _full_rank(_singular_values(model, subsets))


def _gamma(k: int) -> float:
    """Rounding growth of a k-term float64 sum or dot product, k u / (1 - k u)."""
    return k * _UNIT / (1 - k * _UNIT)


def observability_matrix(model: SystemModel, s: Iterable[int]) -> np.ndarray:
    """Stacked observability matrix O_s, shape (n * |s|, n): the blocks of
    the sensors in s, ascending, selected from the model's stack."""
    subset = normalize_subset(s, model.p)
    return _stacked_blocks(model, np.subtract([subset], 1))[0]


def is_observable(model: SystemModel, s: Iterable[int]) -> bool:
    """Whether (A, C_s) is observable, as `_observable` decides it: O_s
    has rank n.  A subset whose Gram certificate succeeds is decided
    without an SVD; any other subset takes the SVD.

    Certificate.  Let u be the unit roundoff, g_k = k u / (1 - k u), and
    F^2 = ||O_full||_F^2 >= ||O_s||_F^2, read off the diagonals of the
    model's per-sensor Grams (`SystemModel.sensor_grams`).  W_s = O_s' O_s
    is the sum of its sensors' Grams, and sigma_min(O_s)^2 =
    lambda_min(W_s).  The certificate is one Cholesky of M = W^ - tau I,
    W^ the computed sum of the computed Grams:

    - W^ - W_s is at most g_(n+p) |O_s|' |O_s| entrywise (n-term
      products, at most p terms summed), so ||W^ - W_s||_2 <= g_(n+p) F^2.
    - Forming M rounds each diagonal entry by at most u max(W^_ii, tau)
      <= u F^2, since the certificate declines unless tau < F^2.
    - A Cholesky that completes on M gives R'R = M + dM with |dM| <=
      g_(n+1) |R'| |R| (Higham, Accuracy and Stability of Numerical
      Algorithms, Thm 10.3; Demmel), so lambda_min(M) >= -||dM||_2 >=
      -g_(n+1) ||R||_F^2 >= -2 g_(n+1) tr(M) >= -2 g_(n+1) F^2.

    So lambda_min(W_s) >= tau - e F^2 with e = g_(n+p) + 2 g_(n+1) + u,
    up to factors 1 + O(u), and tau = T^2 + 2 e F^2 leaves lambda_min(W_s)
    > T^2; the 2 covers those factors and the rounding of F^2 and tau.
    Take T = RANK_RTOL max(1, F) + 2 delta, with delta = 4 p n^2 eps F the
    SVD error bound of `sparse_observability_index` (F >= sigma_max(O_full)
    stands in for sigma_max there, so no SVD of O_full is needed).  Then
      sigma^_min(O_s) >= sigma_min(O_s) - delta > RANK_RTOL max(1, F) + delta
                      >= RANK_RTOL max(1, sigma^_max(O_s)),
    since sigma^_max(O_s) <= F + delta and RANK_RTOL < 1: the SVD test
    passes s.  A certified subset is thus decided as the SVD decides it,
    and a declined one is decided by the SVD.  A non-finite Gram sum or
    tau declines."""
    subset = normalize_subset(s, model.p)
    cols = np.subtract([subset], 1)
    return _gram_certified(model, cols) or bool(_observable(model, cols)[0])


@np.errstate(over="ignore", invalid="ignore")  # a non-finite W or tau declines
def _gram_certified(model: SystemModel, subsets: np.ndarray) -> bool:
    """The Cholesky certificate of `is_observable` for every row of
    ``subsets`` (as in `_stacked_blocks`), one batched Cholesky: True only
    when every O_s certainly passes the SVD test."""
    n, grams = model.n, model.sensor_grams
    frob2 = float(np.einsum("cii->", grams))  # ||O_full||_F^2
    frob = math.sqrt(frob2)  # inf or nan when a Gram overflowed
    delta = 4 * model.p * n * n * np.finfo(float).eps * frob
    floor = RANK_RTOL * max(1.0, frob) + 2 * delta
    slack = 2 * (_gamma(n + model.p) + 2 * _gamma(n + 1) + _UNIT) * frob2
    tau = floor * floor + slack
    if not tau < frob2:  # False on inf or nan
        return False
    W = grams[subsets].sum(axis=1)
    if not np.isfinite(W).all():
        return False
    W.reshape(len(W), -1)[:, :: n + 1] -= tau  # every diagonal
    try:
        np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        return False
    return True


def sparse_observability_index(model: SystemModel) -> int:
    """Largest theta such that every subset of p - theta sensors is
    observable; -1 when even the full set is not.

    theta = p - 1 - F, with F the largest size of an unobservable
    subset, or 0 when every subset is observable.  The scan decides
    levels (subset sizes) from both ends, always the one with fewer
    subsets next, C(p, lo) against C(p, hi), the low one on a tie: lo
    rises from 1 and hi falls from p - 1.  Each level is decided
    SUBSET_SLICE subsets per batched SVD, and no slice after a failing
    one is decided.

    - High end: a level hi with an unobservable subset is F, since every
      larger level has passed.
    - Low end: a level with an unobservable subset raises f, the largest
      failing low level so far.  A level whose every subset has its
      smallest singular value above the certified floor T is certified:
      every larger level is observable, so F = f.
    - When the ends cross, every level has been decided, and F = f.

    Certification.  Take s a certified subset and t a superset.  With
    hats for computed values, a backward-stable SVD of an r x n matrix M
    gives each singular value within c r n eps ||M||_2 of the exact one,
    c a small constant.  Every O_s has r <= p n rows and ||O_s||_2 <=
    sigma_max(O_full), so delta = 4 p n^2 eps sigma_hat_max(O_full)
    bounds every error; the 4 covers c and the difference between
    sigma_max(O_full) and its computed value.  Then
      sigma_hat_min(O_t) >= sigma_min(O_t) - delta
                         >= sigma_min(O_s) - delta          (rows added)
                         >= sigma_hat_min(O_s) - 2 delta > T - 2 delta,
    and the own floor of t is
      RANK_RTOL max(1, sigma_hat_max(O_t))
        <= RANK_RTOL max(1, sigma_max(O_full) + delta)
        <= RANK_RTOL max(1, sigma_hat_max(O_full)) + 2 RANK_RTOL delta.
    So T = RANK_RTOL max(1, sigma_hat_max(O_full)) + 3 delta puts
    sigma_hat_min(O_t) above its own floor (RANK_RTOL < 1/2): t passes
    the per-subset test, exactly as deciding it would.  The slack only
    makes a level harder to certify, so a larger one could cost SVDs but
    never change theta.
    """
    p, n = model.p, model.n
    if p > DEFAULT_SENSOR_CAP:
        raise ConfigError(f"p={p} exceeds the enumeration cap {DEFAULT_SENSOR_CAP}")
    full = _singular_values(model, np.arange(p)[None])
    if not _full_rank(full)[0]:
        return -1
    top = float(full[0, 0])
    delta = 4 * p * n * n * np.finfo(float).eps * top
    certified = RANK_RTOL * max(1.0, top) + 3 * delta

    def decide(size: int) -> tuple[bool, bool]:
        """(every size-subset is observable, every one is certified)."""
        above = True
        for chunk in _subset_slices(full_subset(p), size):
            sv = _singular_values(model, chunk)
            if not _full_rank(sv).all():
                return False, False
            above = above and bool((sv[:, -1] > certified).all())
        return True, above

    lo, hi, failed = 1, p - 1, 0
    while lo <= hi:
        if comb(p, lo) <= comb(p, hi):
            observable, above = decide(lo)
            if not observable:
                failed = lo
            elif above:
                break
            lo += 1
        else:
            if not decide(hi)[0]:
                return p - 1 - hi
            hi -= 1
    return p - 1 - failed


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused in _finite
def min_gram_eigenvalue(model: SystemModel, s: Iterable[int], k: int) -> float:
    """Worst-case smallest eigenvalue of the stacked observability Gram
    matrix over all ways to drop k sensors from s.  Zero (not negative)
    when some reduced subset is unobservable, as `is_observable` decides
    it: the eigenvalue of a rank-deficient Gram can round to a tiny
    positive value.  AnalysisError when a Gram passes the float64 range.

    The reduced subsets are taken SUBSET_SLICE at a time: one batched
    rank call, then one `eigvalsh` over the slice's Grams O_s' O_s."""
    subset = normalize_subset(s, model.p)
    if k < 0 or k >= len(subset):
        raise ConfigError(f"need 0 <= k < |s|, got k={k}, |s|={len(subset)}")
    best = np.inf
    for chunk in _subset_slices(subset, len(subset) - k):
        if not _observable(model, chunk).all():
            return 0.0
        # one product per subset: a batched matmul rounds differently
        grams = np.stack([Os.T @ Os for Os in _stacked_blocks(model, chunk)])
        _finite(grams, "observability Grams O_s' O_s")
        best = min(best, float(np.linalg.eigvalsh(grams)[:, 0].min()))
    return max(best, 0.0)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused in _finite
def noise_structure(model: SystemModel, s: Iterable[int]) -> np.ndarray:
    """Covariance of the stacked window noise of subset s, sigma_w2 J_s J_s'
    + sigma_v2 I, shape (n |s|, n |s|): window row a of sensor i sees
    w(t + m), m < a, through C_i A^(a-1-m), so the process-noise part of
    entry ((i, a), (j, b)) is that of ((i, a-1), (j, b-1)) plus the
    product of rows (i, a-1) and (j, b-1) of O_s.  AnalysisError when an
    entry passes the float64 range."""
    Os = observability_matrix(model, s)
    n, k = model.n, len(Os) // model.n
    products = (Os @ Os.T).reshape(k, n, k, n)  # [i, a, j, b]: rows (i, a), (j, b)
    cov = np.zeros((n * k, n * k))
    grid = cov.reshape(k, n, k, n)  # cov's entries, indexed as products
    for a in range(1, n):
        grid[:, a, :, 1:] = grid[:, a - 1, :, :-1] + products[:, a - 1, :, :-1]
    cov *= model.sigma_w2
    cov.flat[:: n * k + 1] += model.sigma_v2
    return _finite(cov, "entries of the window noise covariance")


def block_output_gram(traj: Trajectory, t_start: int, count: int) -> np.ndarray:
    """Gram matrix Ybar' Ybar of the all-sensor block-output matrix,
    shape (n p, n p), without forming Ybar.  Row t of Ybar holds the
    n-step output windows for t = t_start .. t_start + count - 1, per
    sensor in ascending order: [y_i(t), ..., y_i(t + n - 1)].

    With S_d the lag-d product, y(u) y(u + d)' summed over the count
    steps from t_start, block (i, j) of the Gram (window rows i and j,
    i <= j) is S_{j-i} over the steps shifted by i: S_{j-i} plus the i
    products entering at the tail minus the i leaving at the head.  So
    the Gram is the block Toeplitz matrix of S_0..S_{n-1} (n products of
    count rows) plus tail' tail - head' head, where the (n - 1, n p)
    factors hold the n - 1 output rows after the window and at its
    start."""
    n, p = traj.n, traj.p
    if t_start < 0 or count < 1:
        raise ConfigError("window start/count out of range")
    if t_start + count - 1 + n - 1 >= traj.horizon:
        raise ConfigError(
            f"output window [{t_start}, {t_start + count - 1}] + {n - 1} lookahead "
            f"exceeds horizon {traj.horizon}"
        )
    Y = traj.outputs
    view = np.lib.stride_tricks.sliding_window_view
    lagged = view(Y[t_start : t_start + count + n - 1], count, axis=0)
    lags = lagged @ Y[t_start : t_start + count]  # [d] -> S_d'
    stack = np.concatenate([lags[:0:-1], lags.transpose(0, 2, 1)])  # [n - 1 + d] -> S_d
    toeplitz = view(stack, n, axis=0)[::-1]  # [i, a, b, j] -> S_{j-i}[a, b]

    def edge(u0: int) -> np.ndarray:
        # [r, (a, i)] -> y_a(u0 + i - 1 - r) for r < i, zero for r >= i
        padded = np.zeros((2 * n - 1, p))
        padded[n - 1 : 2 * n - 2] = Y[u0 : u0 + n - 1]
        return view(padded, n, axis=0)[: n - 1][::-1].reshape(n - 1, p * n)

    tail, head = edge(t_start + count), edge(t_start)
    gram = tail.T @ tail
    gram -= head.T @ head
    gram.reshape(p, n, p, n)[...] += toeplitz.transpose(1, 0, 2, 3)
    return gram
